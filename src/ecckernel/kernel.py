"""Explicit kernel derivations and an independent verifier.

A `Derivation` is any derivation tree: a rule name, a conclusion, the
premises and the side data. It is a frozen dataclass with slots, built,
as `terms.Judgment` is, by writing each slot through its own setter.
Inference builds its syntax-directed trace
of them, and `elaborate` expands that trace into a derivation of the
declarative kernel system's thirteen rules alone, explicit subsumption
(Cum) included. `verify` accepts exactly those thirteen rules: to it a
trace's algorithmic node (`Pi2'`, `Sigma'`, `App'`, `Pair'`, `Conv`) is
an unknown rule. It re-checks every node against its rule schema from
scratch: premise conclusions must instantiate the schema (compared up to
alpha), substitutions are recomputed, and universe arithmetic and
recorded cumulativity side conditions are re-decided semantically.

Each rule has one row in `_RULES`, read with one lookup: its premise
contexts, one character per premise (`=` for the node's context, `+` for
it plus one entry, `-` for it minus its last entry), and whether it
carries a universe index (an `int`, never a bool or a float) and a side
pair, and which judgment, if any, is the context validity judgment
`G types Prop at Type 0`: the first premise (T, var) or the conclusion
(Ax, C). A node is checked against its row before the rule's own clauses
run, so no clause checks arity, contexts, foreign side data or validity
by hand; a conclusion's validity is checked after them.
Each check is an inline test; a failing node's path and reason are
spelled out only when it fails, and fuel that runs out while a node is
checked names its path and rule.

Every rule is checked by its parts. A binder in a conclusion (a formation
or Lam subject, a Lam type, a Pair annotation) is matched against its
premise's last context entry in one helper, `_binds`: its domain against
the entry's type, its body against the premise's subject or type, under
the two names. App compares its function and argument directly. So a part
shared with a premise costs one `is` test and is not walked again;
elaboration shares every part but the body of a binder it renamed away
from a context name. The kernel builds terms only as substitution
instances (App's codomain, Pair's family, Proj2's type).

Contexts need no separate check: every rule other than Ax and C has a
premise whose context is the node's own or extends it, so every
non-empty context is a prefix of one that some C node concludes; a C
node checks that its last entry is typed and fresh, and its premise
sits in the context before that entry. A premise context is compared
with the node's from the last entry back, up to alpha, until the two
reach one object: where one was built by extending the other, that is
one `is` test; contexts built apart are compared entry by entry down to
the first object they share.

The verifier never looks at how a tree was produced: this module
depends only on `terms` and `reduction`, never on inference or on the
derivation builder in `elaborate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from .reduction import DEFAULT_FUEL, Fuel, FuelExhausted, subtype, universe_level
from .terms import SHAPES, App, Context, Judgment, Lam, Pair, Pi, Proj1, Proj2, Prop, Sigma, Term, Type, Var
from .terms import _alpha, _frozen, alpha_eq, subst

# rule: (premise contexts, carries a universe index, carries a side pair,
# the judgment that is the context validity judgment)
_RULES = {
    "Ax": ("", False, False, "conclusion"), "C": ("-", False, False, "conclusion"),
    "T": ("=", True, False, "premise"), "var": ("=", False, False, "premise"),
    "Pi1": ("=+", False, False, None), "Pi2": ("=+", True, False, None), "Sigma": ("=+", True, False, None),
    "Lam": ("+", False, False, None), "App": ("==", False, False, None), "Pair": ("==+", True, False, None),
    "Proj1": ("=", False, False, None), "Proj2": ("=", False, False, None), "Cum": ("==", False, True, None),
}
KERNEL_RULES = frozenset(_RULES)
_ABSENT = object()  # what a context lookup finds for a name no entry has


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Derivation:
    """Derivation node, of the kernel or of an inference trace; side data:
    universe index, Cum pair.

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

    def __init__(self, rule: str, conclusion: Judgment, premises: tuple = (), level: int | None = None,
                 sub: Term | None = None, sup: Term | None = None):
        _RULE(self, rule), _CONCLUSION(self, conclusion), _PREMISES(self, premises)
        _LEVEL(self, level), _SUB(self, sub), _SUP(self, sup)

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


Derivation.__setattr__ = Derivation.__delattr__ = _frozen
# the slots' own setters, which the frozen __setattr__ leaves to the constructor
_RULE, _CONCLUSION, _PREMISES, _LEVEL, _SUB, _SUP = (getattr(Derivation, slot).__set__ for slot in Derivation.__slots__)


class DerivationError(Exception):
    """First failing node (pre-order) and the reason it fails."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _is_validity(j: Judgment) -> bool:
    # `G types Prop at Type 0` encodes validity of G
    return type(j.subject) is Prop and type(j.type) is Type and j.type.level == 0


def _extends(a: Context, b: Context, extra: bool) -> bool:
    # a is b, followed by one more entry when `extra`, compared up to alpha
    return a.length == b.length + extra and (a.parent if extra else a).matches(b, alpha_eq)


def _binds(t: Term, cons: type, ctx: Context, body: Term) -> bool:
    # t is cons binding ctx's last entry over body, up to alpha, compared part
    # by part: a part shared with the premise costs one `is` test
    first, second = SHAPES[cons]
    if type(t) is not cons or not alpha_eq(getattr(t, first), ctx.type):
        return False
    x, y, part = t.var, ctx.name, getattr(t, second)
    return alpha_eq(part, body) if x == y else _alpha(part, body, {x: 0}, {y: 0}, 1)


def verify(d: Derivation, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Accept iff every node is a correct instance of its rule schema.

    A check reads only the node and its premises' conclusions, so a node object
    on several paths is checked once, at its first path in pre-order.
    """
    f = Fuel.coerce(fuel)
    # a path is (node, parent's path, premise index), spelled out only for a
    # node that fails
    checked, stack = set(), [(d, None, 0)]
    try:
        while stack:
            path = stack.pop()
            node = path[0]
            if id(node) not in checked:
                checked.add(id(node))
                _check_node(node, f, path)
                ps = node.premises
                for i in range(len(ps) - 1, -1, -1):
                    stack.append((ps[i], path, i))
    except FuelExhausted as e:
        raise FuelExhausted(f"{e} at {_spelled(path)} ({node.rule})") from e
    return True


def _spelled(path: tuple) -> str:
    steps = []
    while path[1] is not None:
        steps.append(str(path[2]))
        path = path[1]
    return ".".join(["root", *reversed(steps)])


def _fail(path: tuple, reason: str, *args) -> NoReturn:
    raise DerivationError(_spelled(path), reason % args if args else reason)


def _check_node(d: Derivation, f: Fuel, path: tuple) -> None:
    rule, c = d.rule, d.conclusion
    ps = [p.conclusion for p in d.premises]
    row = _RULES.get(rule)
    if row is None:
        _fail(path, "unknown rule %r", rule)
    contexts, leveled, sided, validity = row
    if not leveled and d.level is not None:
        _fail(path, "rule %s carries no universe index", rule)
    if not sided and (d.sub is not None or d.sup is not None):
        _fail(path, "rule %s carries no side pair", rule)
    if len(ps) != len(contexts):
        _fail(path, "rule %s expects %d premises, got %d", rule, len(contexts), len(ps))
    for i, (at, p) in enumerate(zip(contexts, ps)):
        if not (_extends(c.ctx, p.ctx, True) if at == "-" else _extends(p.ctx, c.ctx, at == "+")):
            _fail(path, "%s premise %d context mismatch", rule, i)
    if validity == "premise" and not _is_validity(ps[0]):
        _fail(path, "%s premise must be the context validity judgment", rule)

    # the most frequent rules first; a `+` premise is always the last
    match rule:
        case "T":
            if not isinstance(c.subject, Type):
                _fail(path, "T concludes a Type universe")
            if type(d.level) is not int or d.level != c.subject.level:
                _fail(path, "T side index mismatch")
            if not (type(c.type) is Type and c.type.level == c.subject.level + 1):
                _fail(path, "T must type Type j at Type j+1")

        case "C":
            if not alpha_eq(ps[0].subject, c.ctx.type):
                _fail(path, "C premise must type the new entry")
            if universe_level(ps[0].type) is None:
                _fail(path, "C entry type must live in a universe")
            if ps[0].ctx.lookup(c.ctx.name, _ABSENT) is not _ABSENT:
                _fail(path, "C entry name must be fresh")

        case "var":
            if not isinstance(c.subject, Var):
                _fail(path, "var concludes a variable")
            entry = c.ctx.lookup(c.subject.name)
            if entry is None:
                _fail(path, "var not bound in the context")
            if not alpha_eq(c.type, entry):
                _fail(path, "var type must match its context entry")

        case "Ax":
            if c.ctx.length:
                _fail(path, "Ax requires the empty context")

        case "Cum":
            if type(ps[1].type) is not Type:
                _fail(path, "Cum target must be typed at a Type universe")
            if not alpha_eq(c.subject, ps[0].subject):
                _fail(path, "Cum subject mismatch")
            if not alpha_eq(c.type, ps[1].subject):
                _fail(path, "Cum must conclude at the target type")
            if d.sub is None or d.sup is None:
                _fail(path, "Cum side pair missing")
            if not alpha_eq(d.sub, ps[0].type):
                _fail(path, "Cum recorded subtype mismatch")
            if not alpha_eq(d.sup, ps[1].subject):
                _fail(path, "Cum recorded supertype mismatch")
            if not subtype(ps[0].type, ps[1].subject, f):
                _fail(path, "Cum side condition fails: not below the target")

        case "Pi1" | "Pi2" | "Sigma":
            cons = Sigma if rule == "Sigma" else Pi
            if not isinstance(c.subject, cons):
                _fail(path, "%s concludes a %s type", rule, cons.__name__)
            if not alpha_eq(ps[1].ctx.type, ps[0].subject):
                _fail(path, "formation body premise must extend by the domain")
            if not _binds(c.subject, cons, ps[1].ctx, ps[1].subject):
                _fail(path, "formation subject must bind the body premise subject")
            if rule == "Pi1":
                if not isinstance(c.type, Prop):
                    _fail(path, "Pi1 lands in Prop")
                if universe_level(ps[0].type) is None:
                    _fail(path, "formation domain must live in a universe")
                if not isinstance(ps[1].type, Prop):
                    _fail(path, "Pi1 body premise must land in Prop")
            else:
                if type(d.level) is not int or d.level < 0:
                    _fail(path, "formation side index missing")
                for t, part in ((ps[0].type, "domain"), (ps[1].type, "body"), (c.type, "conclusion")):
                    if not (type(t) is Type and t.level == d.level):
                        _fail(path, "formation %s must land at the index", part)

        case "App":
            fn_ty = ps[0].type
            if not isinstance(fn_ty, Pi):
                _fail(path, "App function premise must have a Pi type")
            if not alpha_eq(ps[1].type, fn_ty.domain):
                _fail(path, "App argument must be typed exactly at the domain")
            if type(c.subject) is not App:
                _fail(path, "App concludes an application")
            if not (alpha_eq(c.subject.fn, ps[0].subject) and alpha_eq(c.subject.arg, ps[1].subject)):
                _fail(path, "App subject must apply the premise subjects")
            if not alpha_eq(c.type, subst(fn_ty.codomain, fn_ty.var, ps[1].subject)):
                _fail(path, "App type must be the instantiated codomain")

        case "Lam":
            if not isinstance(c.subject, Lam):
                _fail(path, "Lam concludes an abstraction")
            if not _binds(c.subject, Lam, ps[0].ctx, ps[0].subject):
                _fail(path, "Lam subject must bind the premise subject")
            if not _binds(c.type, Pi, ps[0].ctx, ps[0].type):
                _fail(path, "Lam type must be the Pi over the premise type")

        case "Pair":
            if not isinstance(c.subject, Pair):
                _fail(path, "Pair concludes a pair")
            ann = c.subject.annotation
            if not isinstance(ann, Sigma):
                _fail(path, "Pair annotation must be a Sigma type")
            if not alpha_eq(c.type, ann):
                _fail(path, "Pair type must be its annotation")
            if not alpha_eq(ps[0].subject, c.subject.first):
                _fail(path, "Pair first premise mismatch")
            if not alpha_eq(ps[1].subject, c.subject.second):
                _fail(path, "Pair second premise mismatch")
            if not alpha_eq(ps[0].type, ann.first):
                _fail(path, "Pair first component must be typed at the annotation domain")
            if not alpha_eq(ps[1].type, subst(ann.second, ann.var, ps[0].subject)):
                _fail(path, "Pair second component must be typed at the instantiated family")
            if not _binds(ann, Sigma, ps[2].ctx, ps[2].subject):
                _fail(path, "Pair family premise must type the annotation family")
            t = ps[2].type
            if type(t) is not Type:
                _fail(path, "Pair family must land in a Type universe")
            if type(d.level) is not int or d.level != t.level:
                _fail(path, "Pair side index mismatch")

        case "Proj1" | "Proj2":
            sig = ps[0].type
            if not isinstance(sig, Sigma):
                _fail(path, "%s premise must have a Sigma type", rule)
            if rule == "Proj1":
                proj, want = Proj1, sig.first
            else:
                proj, want = Proj2, subst(sig.second, sig.var, Proj1(ps[0].subject))
            if not isinstance(c.subject, proj):
                _fail(path, "%s concludes its projection", rule)
            if not alpha_eq(c.subject.pair, ps[0].subject):
                _fail(path, "%s subject mismatch", rule)
            if not alpha_eq(c.type, want):
                _fail(path, "%s type must be its component's type", rule)

    if validity == "conclusion" and not _is_validity(c):
        _fail(path, "%s types Prop at Type 0", rule)
