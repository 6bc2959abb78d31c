"""Tests of the benchmark itself: known answers, repeatable counters, and
that the traced decomposition runs what the CLI runs.

    python3 -m pytest -q bench
"""

import random
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import inputs  # noqa: E402
import workloads  # noqa: E402
from ecckernel import (  # noqa: E402
    check_context,
    infer_type,
    parse_context,
    parse_term,
    principal_of,
    to_full,
    trace_to_derivation,
)

SEED = 5


def _tiny(name: str, seed: int, workdir) -> tuple:
    rng = random.Random(seed)
    if name == "corpus":
        return rng, workloads.RoundTrip(inputs.corpus_items()[::7], str(workdir), rng)
    if name == "chains":
        items = inputs.chain_items(rng, ks=range(0, 2), ns=range(1, 3))
        return rng, workloads.RoundTrip(items, str(workdir), rng)
    return rng, workloads.Decide(rng, per_depth=1)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_op_returns_its_known_answer(name, tmp_path):
    rng, wl = _tiny(name, SEED, tmp_path)
    tally = run.Tally()
    samples: dict = {}
    run.untraced_pass(wl, rng, tally, samples)
    _, _, tracer = run.traced_pass(wl, rng, tally)
    assert all(len(xs) == 1 and xs[0][0] > 0 for xs in samples.values())
    assert tally.attempted > 0
    assert tally.failed == 0
    assert {op.kind for op in samples} == set(workloads.KINDS)
    assert all(s.error in (None, "DerivationError", "FuelExhausted") for s in tracer.spans)


def _counters(name: str, workdir) -> tuple:
    workdir.mkdir()
    rng, wl = _tiny(name, SEED, workdir)
    tally = run.Tally()
    run.untraced_pass(wl, rng, tally, {})
    values = run.layer_metrics(run.traced_pass(wl, rng, tally)[2])
    assert tally.failed == 0
    deterministic = {k: v for k, v in values.items() if not k.endswith(".ms")}
    return wl.output_bytes(), deterministic


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_repeat_for_one_seed(name, tmp_path):
    first = _counters(name, tmp_path / "a")
    second = _counters(name, tmp_path / "b")
    assert first == second
    if name != "decide":
        assert first[0] > 0 and first[1]["kernel.nodes"] > 0


@pytest.mark.parametrize(
    "item", inputs.corpus_items() + inputs.chain_items(random.Random(SEED)), ids=lambda it: it.name
)
def test_traced_decomposition_builds_the_cli_derivation(item):
    ctx, term = parse_context(item.ctx), parse_term(item.subject)
    check_context(ctx)
    decomposed = to_full(trace_to_derivation(infer_type(ctx, term)))
    _, expected = principal_of(ctx, term)
    assert decomposed == expected


def test_mutants_change_exactly_one_node():
    rng = random.Random(SEED)
    for item in inputs.corpus_items():
        _, d = principal_of(parse_context(item.ctx), parse_term(item.subject))
        assert _changed_nodes(d, inputs.mutate(rng, d)) == 1


def _changed_nodes(a, b) -> int:
    if a == b:
        return 0
    own = (a.rule, a.conclusion, a.level, a.sub, a.sup) != (b.rule, b.conclusion, b.level, b.sub, b.sup)
    if len(a.premises) != len(b.premises) or {id(p) for p in a.premises} == {id(p) for p in b.premises}:
        return 1  # premises dropped or reordered at this node
    return own + sum(_changed_nodes(p, q) for p, q in zip(a.premises, b.premises))

