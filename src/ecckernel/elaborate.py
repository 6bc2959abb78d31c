"""Elaboration: from inference traces to full kernel derivations.

An inference trace is the syntax-directed derivation, a `Derivation`
whose algorithmic nodes (`Pi2'`, `Sigma'`, `App'`, `Pair'`) carry
cumulativity side conditions instead of subsumption nodes and whose
`Conv` nodes mark an exposed head; `verify` knows none of these rules.
`to_full` expands it rule by rule in one pass into a derivation of the
kernel's rules alone: the leaf rules get their context-validity chain,
binder formation rules lift a premise to the target universe, and
application and pairing lift the argument sides to the expected types,
each only when its type differs; the lifted type is typed by
`type_typing`. Each conversion node becomes a subsumption node whose
target is typed the same way. The conclusion judgment of every node is
preserved. Nothing here is trusted: `kernel.verify` re-checks what it
builds. `principal_of` builds its context's validity chain first, and
tests each entry's name fresh as it goes, so the chain is the context
check: it raises what `check_context` raises, in the same order.

Within one call only validity chains and `type_typing` typings are
memoised; a chain is built front to back from its longest prefix in the
memo, so a long context costs no interpreter frame per entry. `T` and
`var` nodes and re-expanded validity typings can repeat as equal
objects, which `verify` checks again and a derivation file stores once.
"""

from __future__ import annotations

from .inference import InferOutcome, _fresh, infer_type, infer_universe
from .kernel import Derivation
from .reduction import DEFAULT_FUEL, Fuel
from .terms import PROP, Context, Judgment, Term, Type, alpha_eq, subst


class _Build(dict):
    """One public call's fuel and memo, which keeps a context's validity chain
    under the context and a typing under its (context, term) pair, so each is
    one object: hash-consing (Filliatre and Conchon, 2006) restricted to the call.
    The empty context's `Ax` node seeds it, so every chain ends in the memo."""

    def __init__(self, fuel: int | Fuel):
        self.fuel = Fuel.coerce(fuel)
        self[Context()] = Derivation("Ax", Judgment(Context(), PROP, Type(0)))


def type_typing(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation of g typing t at some Type universe (level >= 0).

    A Prop-level principal type is lifted one cumulativity step. A universe
    needs none: Prop is typed at Type 0 by the context-formation chain itself,
    and Type j at Type j+1 on top of it.
    """
    return _type_typing(g, t, _Build(fuel))


def _type_typing(g: Context, t: Term, b: _Build) -> Derivation:
    # g types t at the exact universe its principal type converts to, Prop lifted
    if (d := b.get((g, t))) is None:
        tr, lvl = infer_universe(g, t, b.fuel)
        d = b[g, t] = _lift(_full(tr, b), Type(max(lvl, 0)), b)
    return d


def _lift(d: Derivation, target: Term, b: _Build) -> Derivation:
    # d's typing at target: d itself when its type already is target, else one
    # Cum, the subsumption of d's type below target, which is typed in d's context
    c = d.conclusion
    if alpha_eq(c.type, target):
        return d
    typing = _type_typing(c.ctx, target, b)
    target = typing.conclusion.subject  # one object on both sides of the kernel's comparison
    return Derivation("Cum", Judgment(c.ctx, c.subject, target), (d, typing), sub=c.type, sup=target)


def trace_to_derivation(outcome: InferOutcome | Derivation, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """The outcome's inference trace, which `to_full` expands as it is.

    Does no work and leaves `fuel` unused: `to_full` takes the trace as it
    is. The benchmark still calls it; ROADMAP item F can drop it.
    """
    return outcome.trace if isinstance(outcome, InferOutcome) else outcome


def to_full(tr: Derivation, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Expand an inference trace into a kernel derivation.

    The conclusion judgment of every trace node is preserved.
    """
    return _full(tr, _Build(fuel))


def _full(tr: Derivation, b: _Build) -> Derivation:
    c = tr.conclusion
    match tr.rule:
        case "Ax" | "C":
            return _validity(c.ctx, b)

        case "T" | "var":
            return Derivation(tr.rule, c, (_validity(c.ctx, b),), level=tr.level)

        case "Pi1" | "Lam" | "Proj1" | "Proj2":
            return Derivation(tr.rule, c, tuple(_full(p, b) for p in tr.premises))

        case "Pi2'" | "Sigma'":
            dom, body = (_lift(_full(p, b), Type(tr.level), b) for p in tr.premises)
            rule = "Pi2" if tr.rule == "Pi2'" else "Sigma"
            return Derivation(rule, c, (dom, body), level=tr.level)

        case "App'":
            fn, arg = (_full(p, b) for p in tr.premises)
            return Derivation("App", c, (fn, _lift(arg, fn.conclusion.type.domain, b)))

        case "Pair'":
            first, second, family = (_full(p, b) for p in tr.premises)
            ann = c.type
            family_at_first = subst(ann.second, ann.var, first.conclusion.subject)
            lifted = (_lift(first, ann.first, b), _lift(second, family_at_first, b))
            return Derivation("Pair", c, (*lifted, family), level=tr.level)

        case "Conv":
            # inference adds a Conv node only where the two types differ, so this is one Cum
            return _lift(_full(tr.premises[0], b), c.type, b)

    raise ValueError(f"unknown trace rule: {tr.rule!r}")


def _validity(g: Context, b: _Build, seen: set[str] | None = None) -> Derivation:
    # the context-formation chain, g typing Prop at Type 0, built front to back
    # from the longest prefix in the memo; each entry is typed in the prefix before
    # it, and, given the names `seen` before the chain, first tested fresh
    longer = []
    while (d := b.get(g)) is None:
        longer.append(g)
        g = g.parent
    for g in reversed(longer):
        if seen is not None:
            _fresh(g.name, seen)
        entry_tr, _ = infer_universe(g.parent, g.type, b.fuel)
        d = b[g] = Derivation("C", Judgment(g, PROP, Type(0)), (_full(entry_tr, b),))
    return d


def principal_of(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> tuple[Term, Derivation]:
    """Principal type together with a kernel derivation concluding it.

    Checks g first, as `check_context` does and with what it raises, in
    building g's validity chain, which the derivation's leaves share.
    """
    b = _Build(fuel)
    _validity(g, b, set())
    outcome = infer_type(g, t, b.fuel)
    return outcome.principal, _full(outcome.trace, b)
