import random

import pytest

from ecckernel import (
    PROP,
    App,
    Pi,
    Sigma,
    Type,
    Var,
    conv,
    descending_chain,
    level_transfer_triple,
    min_subtype_level,
    normalize,
    self_application,
    step,
    strict_subtype,
    subst,
    subtype,
    subtype_at_level,
    universe_level,
)

from genterms import at_level, expand, normal_type, strict_above

FUEL = 10**4


def test_level_transfer_triple_verdicts():
    c, a, b = level_transfer_triple()
    assert subtype(c, a, FUEL)
    assert subtype_at_level(a, b, 1, FUEL)
    assert strict_subtype(a, b, FUEL)
    assert not subtype_at_level(c, a, 1, FUEL)


def test_level_two_closes_the_gap():
    c, a, _ = level_transfer_triple()
    assert subtype_at_level(c, a, 2, FUEL)


def test_min_levels():
    c, a, b = level_transfer_triple()
    assert min_subtype_level(a, b, FUEL) == 1
    assert min_subtype_level(c, a, FUEL) == 2
    assert min_subtype_level(PROP, PROP, FUEL) == 0
    assert min_subtype_level(b, c, FUEL) is None


def test_universe_ordering():
    assert subtype(PROP, Type(0), 10)
    assert subtype(PROP, Type(5), 10)
    assert subtype(Type(1), Type(4), 10)
    assert not subtype(Type(1), Type(0), 10)
    assert not subtype(Type(0), PROP, 10)
    assert strict_subtype(PROP, Type(0), 10)
    assert not strict_subtype(PROP, PROP, 10)


def test_universe_level_helper():
    assert universe_level(PROP) == -1
    assert universe_level(Type(3)) == 3
    assert universe_level(Var("x")) is None


def test_reflexive_on_divergent_terms():
    loop = self_application()
    assert subtype(loop, loop, 100)
    assert not strict_subtype(loop, loop, 100)


def test_descending_chain_is_strict_without_normalization():
    chain = descending_chain(6)
    for lower, upper in zip(chain[1:], chain):
        assert strict_subtype(lower, upper, 100)
        assert subtype(lower, upper, 100)
        assert not strict_subtype(upper, lower, 100)


def test_pi_domains_compared_by_conversion_only():
    # a strictly smaller domain must not make the Pi comparable
    small = Pi("x", PROP, PROP)
    large = Pi("x", Type(0), PROP)
    assert not subtype(small, large, FUEL)
    assert not subtype(large, small, FUEL)
    # covariant codomain
    assert subtype(Pi("x", PROP, Type(0)), Pi("y", PROP, Type(3)), FUEL)
    assert strict_subtype(Pi("x", PROP, Type(0)), Pi("y", PROP, Type(3)), FUEL)


def test_sigma_covariant_in_both_components():
    assert subtype(Sigma("x", PROP, PROP), Sigma("x", Type(0), Type(1)), FUEL)
    assert strict_subtype(Sigma("x", PROP, PROP), Sigma("x", PROP, Type(0)), FUEL)


def test_level_must_be_non_negative():
    with pytest.raises(ValueError):
        subtype_at_level(PROP, PROP, -1, 10)


def test_monotone_in_level():
    rng = random.Random(43)
    c, a, b = level_transfer_triple()
    pairs = [(c, a), (a, b), (c, b)]
    for _ in range(120):
        t = normal_type(rng, 2)
        raised = strict_above(rng, t)
        if raised is not None:
            pairs.append((t, raised))
    for lo, hi in pairs:
        held = False
        for i in range(6):
            now = at_level(lo, hi, i, FUEL)
            assert not (held and not now), "level-indexed relation must be monotone"
            assert subtype_at_level(lo, hi, i, FUEL) == now
            held = held or now


def test_structural_subtype_agrees_with_level_unfolding():
    # oracle: exhaustive search over levels up to the nesting depth
    rng = random.Random(47)
    from genterms import _head_depth

    checked = 0
    for _ in range(300):
        x = normal_type(rng, 2)
        y = normal_type(rng, 2) if rng.random() < 0.5 else strict_above(rng, x) or x
        bound = max(_head_depth(x), _head_depth(y)) + 1
        levels = [i for i in range(bound + 1) if at_level(x, y, i, FUEL)]
        assert [i for i in range(bound + 1) if subtype_at_level(x, y, i, FUEL)] == levels
        oracle = bool(levels)
        assert subtype(x, y, FUEL) == oracle
        assert min_subtype_level(x, y, FUEL) == (levels[0] if levels else None)
        assert strict_subtype(x, y, FUEL) == (oracle and not conv(x, y, FUEL))
        checked += 1
    assert checked == 300


def test_strict_part_skips_conversion_of_divergent_neutral_heads():
    # both sides are stuck applications of a variable whose arguments
    # diverge; conversion would exhaust the fuel, strictness never asks it
    loop = self_application()
    z = Var("z")
    assert not strict_subtype(App(z, loop), App(z, step(loop)), 1000)


def test_min_level_on_the_descending_chain():
    # level 1 unfolds the shared Sigma head: Prop below Type 0 in the
    # first component, the same divergent term in the second
    chain = descending_chain(2)
    assert min_subtype_level(chain[1], chain[0], 1000) == 1


def test_preorder_reflexive_transitive():
    rng = random.Random(53)
    for _ in range(100):
        t = normal_type(rng, 2)
        assert subtype(t, t, FUEL)
        up1 = strict_above(rng, t)
        if up1 is None:
            continue
        up2 = strict_above(rng, up1) or up1
        assert subtype(t, up1, FUEL) and subtype(up1, up2, FUEL)
        assert subtype(t, up2, FUEL)


def test_congruence_under_conversion():
    rng = random.Random(59)
    for _ in range(100):
        a = normal_type(rng, 2)
        b = strict_above(rng, a) or a
        a2, b2 = expand(rng, a), expand(rng, b)
        assert conv(a, a2, FUEL) and conv(b, b2, FUEL)
        assert subtype(a, b, FUEL) == subtype(a2, b2, FUEL)
        assert strict_subtype(a, b, FUEL) == strict_subtype(a2, b2, FUEL)


def test_substitution_preserves_subtype():
    rng = random.Random(61)
    for _ in range(200):
        a = normal_type(rng, 2, ("x", "u"))
        b, _ = __import__("genterms").bump(rng, a)
        n = normal_type(rng, 2)
        assert subtype(a, b, FUEL)
        assert subtype(subst(a, "x", n), subst(b, "x", n), FUEL)


def test_below_a_universe_normalizes_to_a_universe():
    rng = random.Random(67)
    for _ in range(200):
        u = Type(rng.randrange(4)) if rng.random() < 0.7 else PROP
        candidate = expand(rng, u) if rng.random() < 0.6 else expand(rng, normal_type(rng, 2))
        bound = Type(rng.randrange(2, 6))
        if subtype(candidate, bound, FUEL):
            nf = normalize(candidate, FUEL)
            assert universe_level(nf) is not None
            assert universe_level(nf) <= bound.level


def test_strictness_excludes_conversion():
    rng = random.Random(71)
    for _ in range(150):
        t = normal_type(rng, 2)
        e = expand(rng, t)
        assert subtype(t, e, FUEL)
        assert not strict_subtype(t, e, FUEL)
        assert not strict_subtype(e, t, FUEL)


def test_min_level_zero_via_alpha_on_divergent_terms():
    loop = self_application()
    assert min_subtype_level(loop, loop, 100) == 0
