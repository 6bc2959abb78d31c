"""Explicit kernel derivations and an independent verifier.

`Derivation` is the declarative kernel system: thirteen rules including
explicit subsumption (Cum). `verify` re-checks every node against its
rule schema from scratch: premise conclusions must instantiate the
schema (compared up to alpha), substitutions are recomputed, and
universe arithmetic and recorded cumulativity side conditions are
re-decided semantically.

Arity and premise contexts come from one table, `_PREMISE_CTX`: one
character per premise, `=` for the node's context, `+` for it plus one
entry, `-` for it minus its last entry. One loop checks each node
against its row before the rule's own clauses run, and hands them the
entry a `+` premise adds; no clause checks arity or contexts by hand.

Contexts need no separate check: every rule other than Ax and C has a
premise whose context is the node's own or extends it, so every
non-empty context is a prefix of one that some C node concludes; a C
node checks that its last entry is typed and fresh, and its premise
sits in the context before that entry.

The verifier never looks at how a tree was produced: this module
depends only on `terms`, `reduction` and `cumulativity`, never on
inference or on the derivation builder in `elaborate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cumulativity import subtype, universe_level
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

_PREMISE_CTX = {
    "Ax": "", "C": "-", "T": "=", "var": "=", "Pi1": "=+", "Pi2": "=+", "Sigma": "=+",
    "Lam": "+", "App": "==", "Pair": "==+", "Proj1": "=", "Proj2": "=", "Cum": "==",
}
KERNEL_RULES = frozenset(_PREMISE_CTX)


@dataclass(frozen=True, eq=False)
class Derivation:
    """Kernel derivation node; side data: universe index, Cum pair.

    Equal by value. A derivation shares subderivations, so `==` compares each
    pair of node objects once rather than walking the tree, and the hash reads
    only the node itself.
    """

    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()
    level: int | None = None
    sub: Term | None = None
    sup: Term | None = None

    def _own(self) -> tuple:
        return self.rule, self.level, len(self.premises), self.conclusion, self.sub, self.sup

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        seen, stack = set(), [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if a._own() != b._own():
                    return False
                stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self) -> int:
        return hash(self._own()[:3])


class DerivationError(Exception):
    """First failing node (pre-order) and the reason it fails."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _is_validity(j: Judgment) -> bool:
    # `G types Prop at Type 0` encodes validity of G
    return isinstance(j.subject, Prop) and j.type == Type(0)


def _extends(a: Context, b: Context, extra: int) -> bool:
    # a is b followed by `extra` more entries, compared up to alpha
    return len(a) == len(b) + extra and (
        a is b or all(na == nb and alpha_eq(ta, tb) for (na, ta), (nb, tb) in zip(a.entries, b.entries))
    )


def verify(d: Derivation, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Accept iff every node is a correct instance of its rule schema.

    A check reads only the node and its premises' conclusions, so a node object
    on several paths is checked once, at its first path in pre-order.
    """
    f = Fuel.coerce(fuel)
    # a path is (node, parent's path, premise index), spelled out only for a
    # node that fails
    checked, stack = set(), [(d, None, 0)]
    while stack:
        path = stack.pop()
        node = path[0]
        if id(node) not in checked:
            checked.add(id(node))
            _check_node(node, f, path)
            stack.extend((p, path, i) for i, p in reversed(tuple(enumerate(node.premises))))
    return True


def _need(cond: bool, path: tuple, reason: str, *args) -> None:
    # the path and the reason are formatted only when the check fails
    if not cond:
        steps = []
        while path[1] is not None:
            steps.append(str(path[2]))
            path = path[1]
        raise DerivationError(".".join(["root", *reversed(steps)]), reason % args if args else reason)


_LEVEL_RULES = frozenset({"T", "Pi2", "Sigma", "Pair"})


def _check_node(d: Derivation, f: Fuel, path: tuple) -> None:
    c = d.conclusion
    ps = tuple(p.conclusion for p in d.premises)
    row = _PREMISE_CTX.get(d.rule)
    _need(row is not None, path, "unknown rule %r", d.rule)
    if d.rule not in _LEVEL_RULES:
        _need(d.level is None, path, "rule %s carries no universe index", d.rule)
    if d.rule != "Cum":
        _need(d.sub is None and d.sup is None, path, "rule %s carries no side pair", d.rule)
    _need(len(ps) == len(row), path, "rule %s expects %d premises, got %d", d.rule, len(row), len(ps))

    for i, (at, p) in enumerate(zip(row, ps)):
        ok = _extends(c.ctx, p.ctx, 1) if at == "-" else _extends(p.ctx, c.ctx, int(at == "+"))
        _need(ok, path, "%s premise %d context mismatch", d.rule, i)
        if at == "+":
            bound = p.ctx.entries[-1]  # (name, type) the premise adds; read only by rules with one

    match d.rule:
        case "Ax":
            _need(not c.ctx, path, "Ax requires the empty context")
            _need(_is_validity(c), path, "Ax types Prop at Type 0")

        case "C":
            name, entry_ty = c.ctx.entries[-1]
            _need(alpha_eq(ps[0].subject, entry_ty), path, "C premise must type the new entry")
            _need(universe_level(ps[0].type) is not None, path, "C entry type must live in a universe")
            _need(name not in ps[0].ctx.names(), path, "C entry name must be fresh")
            _need(_is_validity(c), path, "C types Prop at Type 0")

        case "T":
            _need(_is_validity(ps[0]), path, "T premise must be the context validity judgment")
            _need(isinstance(c.subject, Type), path, "T concludes a Type universe")
            _need(d.level == c.subject.level, path, "T side index mismatch")
            _need(
                c.type == Type(c.subject.level + 1),
                path,
                "T must type Type j at Type j+1",
            )

        case "var":
            _need(_is_validity(ps[0]), path, "var premise must be the context validity judgment")
            _need(isinstance(c.subject, Var), path, "var concludes a variable")
            entry = c.ctx.lookup(c.subject.name)
            _need(entry is not None, path, "var not bound in the context")
            _need(alpha_eq(c.type, entry), path, "var type must match its context entry")

        case "Pi1" | "Pi2" | "Sigma":
            cons = Sigma if d.rule == "Sigma" else Pi
            _need(isinstance(c.subject, cons), path, "%s concludes a %s type", d.rule, cons.__name__)
            y, dom = bound
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
            if d.rule == "Pi1":
                _need(isinstance(c.type, Prop), path, "Pi1 lands in Prop")
                _need(universe_level(ps[0].type) is not None, path, "formation domain must live in a universe")
                _need(isinstance(ps[1].type, Prop), path, "Pi1 body premise must land in Prop")
            else:
                lvl = d.level
                _need(isinstance(lvl, int) and lvl >= 0, path, "formation side index missing")
                _need(ps[0].type == Type(lvl), path, "formation domain must land at the index")
                _need(ps[1].type == Type(lvl), path, "formation body must land at the index")
                _need(c.type == Type(lvl), path, "formation conclusion must land at the index")

        case "Lam":
            y, dom = bound
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
            _need(isinstance(c.subject, Pair), path, "Pair concludes a pair")
            ann = c.subject.annotation
            _need(isinstance(ann, Sigma), path, "Pair annotation must be a Sigma type")
            _need(alpha_eq(c.type, ann), path, "Pair type must be its annotation")
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
            y, dom = bound
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

        case "Proj1" | "Proj2":
            sig = ps[0].type
            _need(isinstance(sig, Sigma), path, "%s premise must have a Sigma type", d.rule)
            if d.rule == "Proj1":
                proj, want = Proj1, sig.first
            else:
                proj, want = Proj2, subst(sig.second, sig.var, Proj1(ps[0].subject))
            _need(isinstance(c.subject, proj), path, "%s concludes its projection", d.rule)
            _need(alpha_eq(c.subject.pair, ps[0].subject), path, "%s subject mismatch", d.rule)
            _need(alpha_eq(c.type, want), path, "%s type must be its component's type", d.rule)

        case "Cum":
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
