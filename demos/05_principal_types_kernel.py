"""Principal types, end to end.

Inference computes the least type of a term together with a trace of the
syntax-directed derivation. The trace is expanded into a full kernel
derivation with explicit subsumption steps and re-checked by the
verifier, which trusts nothing about how the tree was produced.
"""

from ecckernel import (
    Derivation,
    Judgment,
    check_context,
    infer_type,
    parse_context,
    parse_term,
    principal_of,
    print_term,
    subtype,
    to_full,
    type_typing,
    verify,
)

ctx = parse_context(
    """
f : Pi x : Type1 . Prop
p2 : Sig g : Type0 . (fn Y : Type1 . Pi Z : Y . Prop) Type0
"""
)
check_context(ctx)

print("-- inference ------------------------------------------------------")
for src in ("f Prop", "fn a : Type0 . f a", "snd p2 Prop"):
    term = parse_term(src)
    outcome = infer_type(ctx, term)
    print(f"  {src:24} : {print_term(outcome.principal)}")
print()

print("-- a trace and its kernel expansion ---------------------------------")
term = parse_term("snd p2 Prop")
outcome = infer_type(ctx, term)


def show(node, indent="  "):
    c = node.conclusion
    print(f"{indent}{node.rule:6} |- {print_term(c.subject)} : {print_term(c.type)}")
    for p in node.premises:
        show(p, indent + "    ")


print("trace:")
show(outcome.trace)
full = to_full(outcome.trace)
print("kernel derivation (subsumption steps now explicit):")
show(full)
print(f"verifier accepts: {verify(full)}")
print()

print("-- principality under a deliberate lift -----------------------------")
tau_prime, derivation = principal_of(ctx, parse_term("f Prop"))
tau = parse_term("Type2")  # a looser type for the same term... is it?
lifted = Derivation(
    "Cum",
    Judgment(ctx, parse_term("f Prop"), tau),
    (derivation, type_typing(ctx, tau)),
    sub=tau_prime,
    sup=tau,
)
print(f"principal type : {print_term(tau_prime)}")
print(f"lifted claim   : {print_term(tau)}")
print(f"lift verifies  : {verify(lifted)}")
print(f"principal below the lift: {subtype(tau_prime, tau)}")
