"""Elaboration: from inference traces to full kernel derivations.

`AlgDerivation` is the syntax-directed restriction of the kernel system
produced from inference traces; its formation and elimination rules
carry cumulativity side conditions instead of subsumption nodes, and
each conversion node embeds a kernel derivation rho typing the
conversion target.

`to_full` performs the rule-by-rule expansion: binder formation rules
lift a premise to the target universe, and application and pairing lift
the argument sides to the expected types, each only when its type
differs; the lifted type is typed by `type_typing`. Each conversion node
becomes a subsumption node reusing its embedded rho. The conclusion
judgment of every node is preserved. Nothing here is trusted:
`kernel.verify` re-checks what it builds.

Each public call builds equal subderivations once, as one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inference import InferOutcome, Trace, infer_type, infer_universe
from .kernel import Derivation
from .reduction import DEFAULT_FUEL, Fuel
from .terms import PROP, Context, Judgment, Prop, Term, Type, alpha_eq, subst


@dataclass(frozen=True)
class AlgDerivation:
    """Syntax-directed derivation node; Conv nodes always carry rho."""

    rule: str
    conclusion: Judgment
    premises: tuple["AlgDerivation", ...] = ()
    level: int | None = None
    rho: Derivation | None = None


class _Build(dict):
    """One public call's fuel and memo. The memo makes equal subderivations one
    object: hash-consing (Filliatre and Conchon, 2006) restricted to the call."""

    def __init__(self, fuel: int | Fuel):
        self.fuel = Fuel.coerce(fuel)

    def __missing__(self, key):
        built = self[key] = key[0](*key[1:], self)
        return built


def _shared(build):
    # build once per call and arguments: the last argument is the call's _Build
    return lambda *args: args[-1][(build, *args[:-1])]


def universe_derivation(g: Context, u: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation typing a universe in a valid context.

    Prop is typed at Type 0 by the context-formation chain itself; Type j
    sits at Type j+1 on top of it.
    """
    if not isinstance(u, (Prop, Type)):
        raise ValueError(f"not a universe: {u!r}")
    return type_typing(g, u, fuel)


def type_typing(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation of g typing t at some Type universe (level >= 0).

    A Prop-level principal type is lifted one cumulativity step.
    """
    return _type_typing(g, t, _Build(fuel))


@_shared
def _type_typing(g: Context, t: Term, b: _Build) -> Derivation:
    # g types t at the exact universe its principal type converts to, Prop lifted
    tr, lvl = infer_universe(g, t, b.fuel)
    return _lift(_full(_materialize(tr, b), b), Type(max(lvl, 0)), b)


def _lift(d: Derivation, target: Term, b: _Build) -> Derivation:
    # d's typing at target: d itself when its type already is target, else one Cum
    if alpha_eq(d.conclusion.type, target):
        return d
    return _cum(d, _type_typing(d.conclusion.ctx, target, b))


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
    return _materialize(tr, _Build(fuel))


def _materialize(tr: Trace, b: _Build) -> AlgDerivation:
    g = tr.judgment.ctx
    match tr.rule:
        case "Ax" | "C":
            return _alg_validity(g, b)
        case "T" | "var":
            return AlgDerivation(tr.rule, tr.judgment, (_alg_validity(g, b),), level=tr.level)
        case "Conv":
            rho = _type_typing(g, tr.judgment.type, b)
            prems = tuple(_materialize(p, b) for p in tr.premises)
            return AlgDerivation("Conv", tr.judgment, prems, rho=rho)
        case _:
            prems = tuple(_materialize(p, b) for p in tr.premises)
            return AlgDerivation(tr.rule, tr.judgment, prems, level=tr.level)


@_shared
def _alg_validity(g: Context, b: _Build) -> AlgDerivation:
    if not g:
        return AlgDerivation("Ax", Judgment(g, PROP, Type(0)))
    front, _, entry_ty = g.pop()
    entry_tr, _ = infer_universe(front, entry_ty, b.fuel)
    return AlgDerivation("C", Judgment(g, PROP, Type(0)), (_materialize(entry_tr, b),))


def to_full(d: AlgDerivation, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Expand a syntax-directed derivation into a kernel derivation.

    The conclusion judgment of every node is preserved.
    """
    return _full(d, _Build(fuel))


def _full(d: AlgDerivation, b: _Build) -> Derivation:
    # keyed by identity, as hashing by value walks the whole tree; the entry keeps d alive
    if id(d) not in b:
        b[id(d)] = (d, _expand(d, b))
    return b[id(d)][1]


def _expand(d: AlgDerivation, b: _Build) -> Derivation:
    c = d.conclusion
    match d.rule:
        case "Ax" | "C" | "T" | "var" | "Pi1" | "Lam" | "Proj1" | "Proj2":
            prems = tuple(_full(p, b) for p in d.premises)
            return Derivation(d.rule, c, prems, level=d.level)

        case "Pi2'" | "Sigma'":
            dom, body = (_lift(_full(p, b), Type(d.level), b) for p in d.premises)
            rule = "Pi2" if d.rule == "Pi2'" else "Sigma"
            return Derivation(rule, c, (dom, body), level=d.level)

        case "App'":
            fn = _full(d.premises[0], b)
            arg = _full(d.premises[1], b)
            return Derivation("App", c, (fn, _lift(arg, fn.conclusion.type.domain, b)))

        case "Pair'":
            first = _full(d.premises[0], b)
            second = _full(d.premises[1], b)
            family = _full(d.premises[2], b)
            ann = c.type
            family_at_first = subst(ann.second, ann.var, first.conclusion.subject)
            lifted = (_lift(first, ann.first, b), _lift(second, family_at_first, b))
            return Derivation("Pair", c, (*lifted, family), level=d.level)

        case "Conv":
            return _cum(_full(d.premises[0], b), d.rho)

    raise ValueError(f"unknown syntax-directed rule: {d.rule!r}")


def principal_of(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> tuple[Term, Derivation]:
    """Principal type together with a kernel derivation concluding it."""
    b = _Build(fuel)
    outcome = infer_type(g, t, b.fuel)
    return outcome.principal, _full(_materialize(outcome.trace, b), b)
