"""Syntax-directed principal-type inference.

Every subject form has exactly one applicable clause, so accepted terms
get a unique principal type (up to conversion) together with a trace:
the syntax-directed derivation, one `Derivation` node per rule
application, which `elaborate` expands into a full kernel derivation
(`to_full`). Its nodes carry the kernel's rule names except where the
rule is algorithmic: `Pi2'`, `Sigma'`, `App'` and `Pair'` take
cumulativity side conditions in place of subsumption nodes, and `Conv`
marks an exposed head.

Universe bookkeeping treats Prop as level -1 while forming Pi and Sigma
types: a Pi whose codomain lands in Prop is itself a Prop (rule Pi1),
any other Pi or Sigma lands in Type max(j, k, 0). Heads needed by a
clause (a universe, a Pi, a Sigma) are exposed by weak-head reduction;
the trace records such conversions as explicit nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import Derivation
from .reduction import DEFAULT_FUEL, Fuel, subtype, universe_level, whnf
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
    free_vars,
    fresh_name,
    subst,
)

UNBOUND_VARIABLE = "UnboundVariable"
NOT_A_FUNCTION = "NotAFunction"
NOT_A_PAIR = "NotAPair"
NOT_A_UNIVERSE = "NotAUniverse"
CUMULATIVITY_VIOLATION = "CumulativityViolation"
INVALID_CONTEXT = "InvalidContext"


class TypeCheckError(Exception):
    """Rejection with a single kind and the offending subterm."""

    def __init__(self, kind: str, offender: Term, detail: str = ""):
        self.kind = kind
        self.offender = offender
        super().__init__(f"{kind}: {detail}" if detail else kind)


@dataclass(frozen=True)
class InferOutcome:
    principal: Term
    trace: Derivation


def _extend(g: Context, binder: str, ty: Term, body: Term) -> tuple[Context, str, Term]:
    # rename the binder when it would collide with a context name
    if g.lookup(binder) is None:
        return g.extend(binder, ty), binder, body
    renamed = fresh_name(binder, {name for name, _ in g} | free_vars(body) | free_vars(ty))
    return g.extend(renamed, ty), renamed, subst(body, binder, Var(renamed))


def infer_universe(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> tuple[Derivation, int]:
    """Infer t and expose its principal type as an exact universe.

    Returns the trace (conversion-wrapped so its conclusion type is
    literally Prop or Type j) and the level, -1 standing for Prop.
    Raises NotAUniverse when the principal type has a different head.
    """
    f = Fuel.coerce(fuel)
    tr, head = _exposed(g, t, f)
    lvl = universe_level(head)
    if lvl is None:
        raise TypeCheckError(NOT_A_UNIVERSE, t, "principal type is not a universe")
    return tr, lvl


def _exposed(g: Context, t: Term, f: Fuel) -> tuple[Derivation, Term]:
    # infer t and weak-head-normalize its type; a changed head is a Conv node
    tr = _infer(g, t, f)
    head = whnf(tr.conclusion.type, f)
    if not alpha_eq(head, tr.conclusion.type):
        tr = Derivation("Conv", Judgment(g, t, head), (tr,))
    return tr, head


def infer_type(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> InferOutcome:
    """Principal type of t in g; g is assumed valid and is not checked (see
    check_context)."""
    f = Fuel.coerce(fuel)
    tr = _infer(g, t, f)
    return InferOutcome(tr.conclusion.type, tr)


def _infer(g: Context, t: Term, f: Fuel) -> Derivation:
    match t:
        case Prop():
            rule = "C" if g else "Ax"
            return Derivation(rule, Judgment(g, t, Type(0)))
        case Type(j):
            return Derivation("T", Judgment(g, t, Type(j + 1)), level=j)
        case Var(x):
            ty = g.lookup(x)
            if ty is None:
                raise TypeCheckError(UNBOUND_VARIABLE, t, f"variable {x!r} is not bound")
            return Derivation("var", Judgment(g, t, ty))

        case Pi(x, a, b) | Sigma(x, a, b):
            a_tr, j = infer_universe(g, a, f)
            g2, _, b2 = _extend(g, x, a, b)
            b_tr, k = infer_universe(g2, b2, f)
            if k == -1 and isinstance(t, Pi):
                # impredicativity: the codomain lives in Prop, so the Pi does
                return Derivation("Pi1", Judgment(g, t, PROP), (a_tr, b_tr))
            # a Prop-level Sigma component contributes -1 and is absorbed by the 0
            lvl = max(j, k, 0)
            rule = "Pi2'" if isinstance(t, Pi) else "Sigma'"
            return Derivation(rule, Judgment(g, t, Type(lvl)), (a_tr, b_tr), level=lvl)

        case Lam(x, ann, body):
            infer_universe(g, ann, f)  # the annotation must be a type
            g2, x2, body2 = _extend(g, x, ann, body)
            body_tr = _infer(g2, body2, f)
            pi = Pi(x2, ann, body_tr.conclusion.type)
            return Derivation("Lam", Judgment(g, t, pi), (body_tr,))

        case App(fn, arg):
            fn_tr, fn_ty = _exposed(g, fn, f)
            if not isinstance(fn_ty, Pi):
                raise TypeCheckError(NOT_A_FUNCTION, fn, "applied term has no Pi type")
            arg_tr = _infer(g, arg, f)
            if not subtype(arg_tr.conclusion.type, fn_ty.domain, f):
                raise TypeCheckError(
                    CUMULATIVITY_VIOLATION, arg, "argument type is not below the domain"
                )
            result = subst(fn_ty.codomain, fn_ty.var, arg)
            return Derivation("App'", Judgment(g, t, result), (fn_tr, arg_tr))

        case Pair(first, second, ann):
            if not isinstance(ann, Sigma):
                raise TypeCheckError(NOT_A_PAIR, t, "pair annotation must be a Sigma type")
            infer_universe(g, ann.first, f)  # annotation components must be types
            fst_tr = _infer(g, first, f)
            snd_tr = _infer(g, second, f)
            g2, _, fam2 = _extend(g, ann.var, ann.first, ann.second)
            fam_tr, k = infer_universe(g2, fam2, f)
            if k == -1:
                raise TypeCheckError(
                    NOT_A_UNIVERSE, ann.second, "pair family must land in a Type universe"
                )
            if not subtype(fst_tr.conclusion.type, ann.first, f):
                raise TypeCheckError(
                    CUMULATIVITY_VIOLATION, first, "first component is not below the annotation"
                )
            expected = subst(ann.second, ann.var, first)
            if not subtype(snd_tr.conclusion.type, expected, f):
                raise TypeCheckError(
                    CUMULATIVITY_VIOLATION, second, "second component is not below the family"
                )
            return Derivation("Pair'", Judgment(g, t, ann), (fst_tr, snd_tr, fam_tr), level=k)

        case Proj1(m) | Proj2(m):
            m_tr, sig = _exposed(g, m, f)
            if not isinstance(sig, Sigma):
                raise TypeCheckError(NOT_A_PAIR, m, "projected term has no Sigma type")
            if isinstance(t, Proj1):
                return Derivation("Proj1", Judgment(g, t, sig.first), (m_tr,))
            return Derivation("Proj2", Judgment(g, t, subst(sig.second, sig.var, Proj1(m))), (m_tr,))

    raise TypeError(f"not a term: {t!r}")


def check_context(g: Context, fuel: int | Fuel = DEFAULT_FUEL) -> None:
    """Raise unless every entry's name is fresh and its type has a universe
    as principal type, checked front to back."""
    f = Fuel.coerce(fuel)
    seen: set[str] = set()
    prefix = Context()
    for name, ty in g:
        _fresh(name, seen)
        infer_universe(prefix, ty, f)
        prefix = prefix.extend(name, ty)


def _fresh(name: str, seen: set[str]) -> None:
    # check_context's test of an entry before it infers the entry's type: the
    # name joins the names before it, or is one of them and raises
    if name in seen:
        raise TypeCheckError(INVALID_CONTEXT, Var(name), f"duplicate name {name!r}")
    seen.add(name)


def check_type(g: Context, t: Term, ascription: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """True iff the principal type of t sits below the ascription.

    The ascription itself must be a type in g; failures other than the
    final cumulativity comparison raise.
    """
    f = Fuel.coerce(fuel)
    outcome = infer_type(g, t, f)
    infer_universe(g, ascription, f)
    return subtype(outcome.principal, ascription, f)
