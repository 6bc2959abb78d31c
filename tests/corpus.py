"""Well-typed corpus: contexts and subjects in surface syntax.

Covers every inference clause several times over, including strict
cumulativity at applications, strict lifts at pairs, proof variables
(entries whose types live in Prop), and subjects whose eliminations need
head conversion to expose a Pi or Sigma.
"""

from __future__ import annotations

from ecckernel import Context, Term, parse_context, parse_term

_CTX = {
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

# (context key, subject); every entry infers successfully
_SUBJECTS = [
    # universes under the leaf rules
    ("empty", "Prop"),
    ("props", "Prop"),
    ("small", "Prop"),
    ("empty", "Type0"),
    ("empty", "Type3"),
    ("props", "Type1"),
    # variables
    ("props", "p"),
    ("small", "x"),
    ("small", "A"),
    # impredicative Pi formation
    ("empty", "Pi p : Prop . p"),
    ("props", "Pi x : Type0 . p"),
    ("empty", "Pi x : Prop . Pi y : x . x"),
    ("props", "Pi y : p . q"),
    # predicative Pi formation
    ("empty", "Pi x : Prop . Prop"),
    ("empty", "Pi x : Type0 . Type1"),
    ("empty", "Pi A : Type0 . A"),
    ("props", "Pi x : p . Prop"),
    # Sigma formation, including Prop-level components
    ("empty", "Sig x : Prop . Type0"),
    ("empty", "Sig x : (Sig y : Prop . Prop) . Prop"),
    ("props", "Sig x : Prop . p"),
    ("props", "Sig x : p . q"),
    # abstractions
    ("empty", "fn x : Prop . x"),
    ("empty", "fn p : Prop . fn q : Prop . p"),
    ("empty", "fn A : Type0 . A"),
    ("props", "fn y : p . y"),
    ("pred", "fn a : Type0 . f a"),
    # applications, strict and at the domain
    ("pred", "f Prop"),
    ("pred", "f (Sig y : Prop . Prop)"),
    ("sigpred", "g z"),
    ("props", "(fn y : p . y) h"),
    ("curried", "c Type0"),
    ("curried", "c Type0 Prop"),
    # pairs, strict lifts on either side
    ("empty", "< Prop , Type0 > : Sig x : Type1 . Type1"),
    ("empty", "< Prop , Prop > : Sig x : Type0 . Type2"),
    ("empty", "< Type0 , Prop > : Sig X : Type1 . X"),
    ("empty", "< Prop , Type1 > : Sig x : Type0 . Type3"),
    ("nested", "< fst w , snd w > : Sig a : Prop . Sig b : Prop . Prop"),
    # projections
    ("nested", "fst w"),
    ("nested", "snd w"),
    ("nested", "fst snd w"),
    ("dep", "fst u"),
    ("dep", "snd u"),
    # eliminations that need head conversion
    ("convpair", "snd p2 Prop"),
    ("convsig", "fst snd e"),
    ("convsig", "snd snd e"),
    ("convfn", "h2 (Pi x : Prop . Prop) p"),
]

# parametric padding: one family per universe level
for _j in range(5):
    _SUBJECTS.extend(
        [
            ("empty", f"Type{_j}"),
            ("empty", f"Pi x : Type{_j} . Type0"),
            ("empty", f"Sig x : Prop . Type{_j}"),
            ("empty", f"fn x : Type{_j} . x"),
            ("empty", f"< Prop , Prop > : Sig x : Type{_j} . Type{_j + 1}"),
        ]
    )


def typed_corpus() -> list[tuple[Context, Term]]:
    ctxs = {key: parse_context(text) for key, text in _CTX.items()}
    return [(ctxs[key], parse_term(src)) for key, src in _SUBJECTS]


def context_chain(k: int) -> tuple[Context, Term]:
    """A0 : Type0, h_i : Pi x : A0 . A0 for i < k, and the subject h_(k-1).

    Its derivation has 5k + 4 distinct nodes, but written out as a tree it
    doubles with each entry: 38,654,705,659 nodes at k = 32.
    """
    g = parse_context("\n".join(["A0 : Type0"] + [f"h{i} : Pi x : A0 . A0" for i in range(k)]))
    return g, parse_term(f"h{k - 1}")
