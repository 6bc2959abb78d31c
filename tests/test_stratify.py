import random

import pytest

from ecckernel import (
    PROP,
    App,
    Fuel,
    FuelExhausted,
    Lam,
    Pi,
    Sigma,
    StratClass,
    StratKind,
    Type,
    Var,
    classify,
    conv,
    level_transfer_triple,
    measure,
    normalize,
    self_application,
    step,
    strict_subtype,
    subtype,
)

from genterms import expand, normal_type, oracle_normalize, strict_above

FUEL = 10**4


def _measure_oracle(nf):
    # independent hand recursion over the normal form
    if nf == PROP:
        return 2
    if isinstance(nf, Type):
        return 3 + nf.level
    if isinstance(nf, (Pi, Sigma)):
        left = nf.domain if isinstance(nf, Pi) else nf.first
        right = nf.codomain if isinstance(nf, Pi) else nf.second
        return _measure_oracle(left) * _measure_oracle(right)
    return 1


def _level_oracle(nf):
    if isinstance(nf, Pi):
        return _level_oracle(nf.domain) + _level_oracle(nf.codomain) + 1
    if isinstance(nf, Sigma):
        return _level_oracle(nf.first) + _level_oracle(nf.second) + 1
    return 0


def _kind_oracle(nf):
    if isinstance(nf, Pi):
        return StratKind.PI
    return StratKind.SIGMA if isinstance(nf, Sigma) else StratKind.BASE


def _outcome(call, budget):
    # the answer, or the exception's type, and the fuel left
    f = Fuel(budget)
    try:
        out = call(f)
    except FuelExhausted:
        out = FuelExhausted
    return out, f.remaining


def test_classify_and_measure_match_the_oracles():
    rng = random.Random(107)
    for _ in range(200):
        t = normal_type(rng, 4, ("u",))
        for u in (t, expand(rng, t)):
            nf = oracle_normalize(u, FUEL)
            want = StratClass(_kind_oracle(nf), _level_oracle(nf), _measure_oracle(nf))
            assert classify(u, FUEL) == want
            assert measure(u, FUEL) == want.measure


def test_classify_spends_the_fuel_normalize_spends():
    rng = random.Random(109)
    terms = [expand(rng, normal_type(rng, 3, ("u",))) for _ in range(30)] + [self_application()]
    for t in terms:
        for budget in list(range(1, 51)) + [10_000]:
            nf, left = _outcome(lambda f: normalize(t, f), budget)
            cls, cls_left = _outcome(lambda f: classify(t, f), budget)
            m, m_left = _outcome(lambda f: measure(t, f), budget)
            assert cls_left == m_left == left
            if nf is FuelExhausted:
                assert cls is m is FuelExhausted
            else:
                assert cls.measure == m


def test_classify_and_measure_reject_a_non_term():
    for not_a_term in (None, 3, "x", Pi("x", PROP, None), Sigma("x", None, PROP)):
        for operation in (classify, measure):
            with pytest.raises(TypeError, match="not a term"):
                operation(not_a_term)


def test_classify_constants_and_lambdas_are_base():
    assert classify(PROP).kind is StratKind.BASE
    assert classify(PROP).level == 0
    cls = classify(Lam("x", PROP, Var("x")))
    assert cls.kind is StratKind.BASE and cls.level == 0 and cls.measure == 1


def test_classify_nested_sigma_level_two():
    t = Sigma("x", Sigma("y", PROP, PROP), PROP)
    cls = classify(t)
    assert cls.kind is StratKind.SIGMA
    assert cls.level == 2


def test_classify_pi_level():
    t = Pi("x", PROP, Pi("y", PROP, PROP))
    cls = classify(t)
    assert cls.kind is StratKind.PI and cls.level == 2


def test_measure_of_universes():
    assert measure(PROP) == 2
    for j in range(6):
        assert measure(Type(j)) == 3 + j


def test_measure_of_triple():
    c, a, b = level_transfer_triple()
    assert measure(c) == 8
    assert measure(a) == 12
    assert measure(b) == 18


def test_measure_positive_and_matches_oracle():
    rng = random.Random(73)
    for _ in range(300):
        t = expand(rng, normal_type(rng, 3, ("u",)))
        nf = normalize(t, FUEL)
        m = measure(t, FUEL)
        assert m >= 1
        assert m == _measure_oracle(nf)


def test_divergent_term_is_not_classifiable():
    with pytest.raises(FuelExhausted):
        classify(self_application(), 1000)
    with pytest.raises(FuelExhausted):
        measure(self_application(), 1000)


def test_conversion_invariance():
    rng = random.Random(79)
    for _ in range(200):
        t = normal_type(rng, 3, ("u",))
        e = expand(rng, t)
        assert conv(t, e, FUEL)
        assert classify(t, FUEL) == classify(e, FUEL)
        assert measure(t, FUEL) == measure(e, FUEL)


def test_classify_constant_along_reduction_paths():
    rng = random.Random(83)
    for _ in range(100):
        t = expand(rng, normal_type(rng, 2, ("u",)))
        want = classify(t, FUEL)
        cur = t
        while cur is not None:
            assert classify(cur, FUEL) == want
            cur = step(cur)


def test_kind_is_a_function_of_the_conversion_class():
    rng = random.Random(89)
    for _ in range(150):
        t = normal_type(rng, 3)
        kinds = {classify(expand(rng, t), FUEL).kind for _ in range(3)}
        assert len(kinds) == 1


def test_strict_monotonicity():
    rng = random.Random(97)
    c, a, b = level_transfer_triple()
    assert measure(c) < measure(a) < measure(b)
    assert strict_subtype(c, a, FUEL) and strict_subtype(a, b, FUEL)
    for _ in range(300):
        t = normal_type(rng, 3)
        raised = strict_above(rng, t)
        if raised is None:
            continue
        assert strict_subtype(t, raised, FUEL)
        assert measure(t, FUEL) < measure(raised, FUEL)


def test_weak_monotonicity():
    rng = random.Random(101)
    from genterms import bump

    for _ in range(300):
        t = normal_type(rng, 3)
        raised, _ = bump(rng, t)
        assert subtype(t, raised, FUEL)
        assert measure(t, FUEL) <= measure(raised, FUEL)


def test_descent_bounded_by_measure():
    from genterms import descend_moves

    rng = random.Random(103)
    for _ in range(100):
        t = normal_type(rng, 3)
        chain = [t]
        cur = t
        while True:
            moves = list(descend_moves(cur))
            if not moves:
                break
            nxt = rng.choice(moves)
            assert strict_subtype(nxt, cur, FUEL)
            chain.append(nxt)
            cur = nxt
        assert len(chain) <= measure(t, FUEL)


def test_application_spines_are_base():
    t = App(Var("f"), Var("x"))
    cls = classify(t)
    assert cls.kind is StratKind.BASE and cls.measure == 1
