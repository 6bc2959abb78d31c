"""Inputs of the benchmark and their known answers.

Everything here is frozen in this file or generated from the workload
seed, so edits to the test suite's corpus or term generators cannot
shift the baseline. No known answer is read back from the program under
test: the corpus table was worked out by hand from the typing rules, the
chain answers follow from the shape of each family, and the decision
answers hold by construction of the generated pairs.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from ecckernel import (
    PROP,
    App,
    Derivation,
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
)

# --- corpus: the test suite's 71 well-typed (context, subject) pairs --------

CORPUS_CONTEXTS = {
    "empty": "",
    "pred": "f : Pi x : Type1 . Prop",
    "props": "p : Prop\nq : Prop\nh : p",
    "small": "A : Type0\nx : A",
    "convpair": "p2 : Sig g : Type0 . (fn Y : Type1 . Pi Z : Y . Prop) Type0",
    "nested": "w : Sig a : Prop . Sig b : Prop . Prop",
    "sigpred": "g : Pi x : (Sig y : Prop . Type0) . Prop\nz : Sig y : Prop . Prop",
    "convsig": "e : Sig g : Type0 . (fn Y : Type1 . Sig z : Prop . Prop) Type0",
    "curried": "c : Pi X : Type1 . Pi Y : X . Prop",
    "dep": "u : Sig t : Type1 . Pi v : t . Prop",
    "convfn": "h2 : Pi X : Type1 . (fn W : Type1 . W) X\np : Prop",
}

# (context key, subject, principal type up to alpha). Pi over a Prop-typed
# codomain is Prop; other Pi and Sigma types land in Type max(j, k, 0) with
# Prop counting as -1; applications and second projections instantiate the
# weak-head normal form of the function or pair type.
CORPUS = [
    ("empty", "Prop", "Type0"),
    ("props", "Prop", "Type0"),
    ("small", "Prop", "Type0"),
    ("empty", "Type0", "Type1"),
    ("empty", "Type3", "Type4"),
    ("props", "Type1", "Type2"),
    ("props", "p", "Prop"),
    ("small", "x", "A"),
    ("small", "A", "Type0"),
    ("empty", "Pi p : Prop . p", "Prop"),
    ("props", "Pi x : Type0 . p", "Prop"),
    ("empty", "Pi x : Prop . Pi y : x . x", "Prop"),
    ("props", "Pi y : p . q", "Prop"),
    ("empty", "Pi x : Prop . Prop", "Type0"),
    ("empty", "Pi x : Type0 . Type1", "Type2"),
    ("empty", "Pi A : Type0 . A", "Type1"),
    ("props", "Pi x : p . Prop", "Type0"),
    ("empty", "Sig x : Prop . Type0", "Type1"),
    ("empty", "Sig x : (Sig y : Prop . Prop) . Prop", "Type0"),
    ("props", "Sig x : Prop . p", "Type0"),
    ("props", "Sig x : p . q", "Type0"),
    ("empty", "fn x : Prop . x", "Pi x : Prop . Prop"),
    ("empty", "fn p : Prop . fn q : Prop . p", "Pi p : Prop . Pi q : Prop . Prop"),
    ("empty", "fn A : Type0 . A", "Pi A : Type0 . Type0"),
    ("props", "fn y : p . y", "Pi y : p . p"),
    ("pred", "fn a : Type0 . f a", "Pi a : Type0 . Prop"),
    ("pred", "f Prop", "Prop"),
    ("pred", "f (Sig y : Prop . Prop)", "Prop"),
    ("sigpred", "g z", "Prop"),
    ("props", "(fn y : p . y) h", "p"),
    ("curried", "c Type0", "Pi Y : Type0 . Prop"),
    ("curried", "c Type0 Prop", "Prop"),
    ("empty", "< Prop , Type0 > : Sig x : Type1 . Type1", "Sig x : Type1 . Type1"),
    ("empty", "< Prop , Prop > : Sig x : Type0 . Type2", "Sig x : Type0 . Type2"),
    ("empty", "< Type0 , Prop > : Sig X : Type1 . X", "Sig X : Type1 . X"),
    ("empty", "< Prop , Type1 > : Sig x : Type0 . Type3", "Sig x : Type0 . Type3"),
    (
        "nested",
        "< fst w , snd w > : Sig a : Prop . Sig b : Prop . Prop",
        "Sig a : Prop . Sig b : Prop . Prop",
    ),
    ("nested", "fst w", "Prop"),
    ("nested", "snd w", "Sig b : Prop . Prop"),
    ("nested", "fst snd w", "Prop"),
    ("dep", "fst u", "Type1"),
    ("dep", "snd u", "Pi v : fst u . Prop"),
    ("convpair", "snd p2 Prop", "Prop"),
    ("convsig", "fst snd e", "Prop"),
    ("convsig", "snd snd e", "Prop"),
    ("convfn", "h2 (Pi x : Prop . Prop) p", "Prop"),
]
for _j in range(5):
    CORPUS += [
        ("empty", f"Type{_j}", f"Type{_j + 1}"),
        ("empty", f"Pi x : Type{_j} . Type0", f"Type{_j + 1}"),
        ("empty", f"Sig x : Prop . Type{_j}", f"Type{_j + 1}"),
        ("empty", f"fn x : Type{_j} . x", f"Pi x : Type{_j} . Type{_j}"),
        (
            "empty",
            f"< Prop , Prop > : Sig x : Type{_j} . Type{_j + 1}",
            f"Sig x : Type{_j} . Type{_j + 1}",
        ),
    ]


@dataclass(frozen=True)
class Item:
    """One elab input: context text, subject text, expected principal type."""

    name: str
    ctx: str
    subject: str
    expected: str


def corpus_items() -> list[Item]:
    return [
        Item(f"corpus{i:02d}", CORPUS_CONTEXTS[key], subject, expected)
        for i, (key, subject, expected) in enumerate(CORPUS)
    ]


# --- chains: the two families whose derivations grow exponentially ---------

CONTEXT_CHAIN_SIZES = range(0, 5)
SPINE_SIZES = range(1, 7)


def chain_items(rng: random.Random, ks=CONTEXT_CHAIN_SIZES, ns=SPINE_SIZES) -> list[Item]:
    """Context chains `A0 : Type0, h_i : Pi x : A0 . A0` and application spines.

    Every spine argument is Prop (typed at Type0) or Type0 (typed at
    Type1); both sit below the Type1 domains, so the spine is a Prop. The
    seed places the arguments; each spine has the same number of each
    kind, give or take one, because the two cost slightly different
    amounts to lift and the mix should not move with the seed.
    """
    items = []
    for k in ks:
        ctx = "\n".join(["A0 : Type0"] + [f"h{i} : Pi x : A0 . A0" for i in range(k)])
        answers = [("A0", "Type0"), ("Prop", "Type0")]
        if k:
            answers.append((f"h{k - 1}", "Pi x : A0 . A0"))
        items += [Item(f"ctx{k}-{subject}", ctx, subject, ty) for subject, ty in answers]
    for n in ns:
        ctx = "c : " + "".join(f"Pi X{i} : Type1 . " for i in range(1, n + 1)) + "Prop"
        args = ["Prop"] * (n // 2) + ["Type0"] * (n - n // 2)
        rng.shuffle(args)
        args = " ".join(args)
        items.append(Item(f"spine{n}", ctx, f"c {args}", "Prop"))
    return items


# --- decide: seeded pairs related by construction ---------------------------
# A frozen copy of the test suite's generators: raising universes only at
# covariant positions puts b above a, a strictly raised position makes it
# strictly above, and inserted redexes contract back to the input.


def _universe(rng: random.Random, max_level: int = 3) -> Term:
    if rng.random() < 0.4:
        return PROP
    return Type(rng.randrange(max_level + 1))


def normal_type(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.3:
        return _universe(rng)
    binder = rng.choice(("a", "b", "c"))
    left = normal_type(rng, depth - 1)
    right = normal_type(rng, depth - 1)
    return (Pi if rng.random() < 0.5 else Sigma)(binder, left, right)


def bump(rng: random.Random, t: Term) -> tuple[Term, bool]:
    """Raise universes at covariant positions; returns (raised, any strict)."""
    match t:
        case Prop():
            if rng.random() < 0.5:
                return Type(rng.randrange(3)), True
            return t, False
        case Type(j):
            if rng.random() < 0.5:
                return Type(j + 1 + rng.randrange(2)), True
            return t, False
        case Pi(x, a, b):
            b2, strict = bump(rng, b)
            return Pi(x, a, b2), strict
        case Sigma(x, a, b):
            a2, s1 = bump(rng, a)
            b2, s2 = bump(rng, b)
            return Sigma(x, a2, b2), s1 or s2
    return t, False


def strict_above(rng: random.Random, t: Term, tries: int = 50) -> Term | None:
    for _ in range(tries):
        raised, strict = bump(rng, t)
        if strict:
            return raised
    return None


def expand(rng: random.Random, t: Term, prob: float = 0.25) -> Term:
    """Insert beta and projection redexes that contract back to t."""

    def wrap(u: Term) -> Term:
        if rng.random() < 0.5:
            v = f"w{rng.randrange(100)}"
            return App(Lam(v, _universe(rng), Var(v)), u)
        ann = Sigma("z", _universe(rng), _universe(rng))
        if rng.random() < 0.5:
            return Proj1(Pair(u, _universe(rng), ann))
        return Proj2(Pair(_universe(rng), u, ann))

    def go(u: Term) -> Term:
        match u:
            case Pi(x, a, b):
                u = Pi(x, go(a), go(b))
            case Sigma(x, a, b):
                u = Sigma(x, go(a), go(b))
        return wrap(u) if rng.random() < prob else u

    return go(t)


@dataclass(frozen=True)
class DecidePair:
    """a strictly below b; the tilde forms are expanded with redexes."""

    a: Term
    b: Term
    a_exp: Term
    b_exp: Term


def binder_depth(t: Term) -> int:
    match t:
        case Pi(_, a, b) | Sigma(_, a, b):
            return 1 + max(binder_depth(a), binder_depth(b))
    return 0


def decide_pairs(rng: random.Random, per_depth: int, depth: int = 5, tick=lambda: None) -> list[DecidePair]:
    """Pairs from `normal_type(rng, depth)`, the same number at each binder depth.

    The generator spreads its types evenly over binder depths 0..depth;
    drawing a fixed number per depth keeps that mix from changing with
    the seed, so seeds differ only within a depth. `tick` is called after
    every `per_depth` pairs.
    """
    pairs = []
    counts = [0] * (depth + 1)
    while len(pairs) < per_depth * (depth + 1):
        a = normal_type(rng, depth)
        d = binder_depth(a)
        if counts[d] == per_depth:
            continue
        b = strict_above(rng, a)
        if b is not None:
            counts[d] += 1
            pairs.append(DecidePair(a, b, expand(rng, a), expand(rng, b)))
            if len(pairs) % per_depth == 0:
                tick()
    return pairs


# --- reference answers, independent of the program's own algorithms --------


def alpha_key(t: Term, bound: tuple[str, ...] = ()) -> tuple:
    """Canonical form up to renaming of bound variables (de Bruijn levels)."""
    match t:
        case Var(x):
            for depth in range(len(bound) - 1, -1, -1):
                if bound[depth] == x:
                    return ("bound", depth)
            return ("free", x)
        case Prop():
            return ("Prop",)
        case Type(j):
            return ("Type", j)
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            return (type(t).__name__, alpha_key(a, bound), alpha_key(b, bound + (x,)))
        case App(f, a):
            return ("App", alpha_key(f, bound), alpha_key(a, bound))
        case Pair(m, n, ann):
            return ("Pair", alpha_key(m, bound), alpha_key(n, bound), alpha_key(ann, bound))
        case Proj1(m) | Proj2(m):
            return (type(t).__name__, alpha_key(m, bound))
    raise TypeError(f"not a term: {t!r}")


def reference_measure(nf: Term) -> int:
    """Well-foundedness measure of a normal type, by its defining table."""
    match nf:
        case Prop():
            return 2
        case Type(j):
            return 3 + j
        case Pi(_, a, b) | Sigma(_, a, b):
            return reference_measure(a) * reference_measure(b)
    return 1


# --- reject inputs: single-node mutations of derivation values --------------

_RULES = ("Ax", "C", "T", "var", "Pi1", "Pi2", "Sigma", "Lam", "App", "Pair", "Proj1", "Proj2", "Cum")


def mutate(rng: random.Random, d: Derivation) -> Derivation:
    """Change one node so that no rule schema admits it.

    The node is drawn from the middle third of the nodes in pre-order, the
    order in which the verifier checks them, so that whatever the seed the
    verifier rejects about halfway through and the reject latency of an
    input does not hinge on where one drawn node sits. The kinds are those of the verifier-independence criterion: another
    rule, level + 1, swapped premises, conclusion type Type7, or a side
    pair on a node that carries none. Each schema fixes the subject
    shape, side data and conclusion type it accepts, so every kind makes
    the node invalid; a kind that would leave the node unchanged is never
    offered.
    """
    paths: list[tuple[int, ...]] = []
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        stack.extend((path + (i,), p) for i, p in reversed(list(enumerate(node.premises))))
    third = len(paths) // 3
    path = rng.choice(paths[third : max(third + 1, 2 * third)])
    node = d
    for i in path:
        node = node.premises[i]

    kinds = ["rule", "type"] if node.conclusion.type != Type(7) else ["rule"]
    if node.level is not None:
        kinds.append("level")
    if len(node.premises) >= 2 and node.premises[0] != node.premises[1]:
        kinds.append("swap")
    if node.sub is None:
        kinds.append("side")
    match rng.choice(kinds):
        case "rule":
            changed = dataclasses.replace(node, rule=rng.choice([r for r in _RULES if r != node.rule]))
        case "type":
            changed = dataclasses.replace(
                node, conclusion=dataclasses.replace(node.conclusion, type=Type(7))
            )
        case "level":
            changed = dataclasses.replace(node, level=node.level + 1)
        case "swap":
            ps = node.premises
            changed = dataclasses.replace(node, premises=(ps[1], ps[0]) + ps[2:])
        case "side":
            changed = dataclasses.replace(node, sub=Type(3), sup=Type(4))
    return _replace_at(d, path, changed)


def _replace_at(d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    if not path:
        return new
    i = path[0]
    ps = d.premises
    return dataclasses.replace(d, premises=ps[:i] + (_replace_at(ps[i], path[1:], new),) + ps[i + 1 :])
