"""The benchmark's workloads: set-up, one pass of operations, and the
traced form of every operation.

An operation is one thing a user waits for. Its kind says which verdict
it produces: `build` writes or computes an output (`ecc elab`, a normal
form), `accept` reaches a positive verdict (`ecc verify` accepting, a
relation that holds) and `reject` a negative one (`ecc verify` rejecting
a mutant, a relation that fails, fuel running out). Every operation
checks its verdict against the known answer from `inputs`.

Untraced operations run the real user path: `ecc elab` and `ecc verify`
go through `cli.run_command` on files, decisions call the library. The
traced form of an operation makes the same public calls that
`cli._dispatch` makes, in the same order, each inside a span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ecckernel import (
    Derivation,
    DerivationError,
    Fuel,
    FuelExhausted,
    check_context,
    classify,
    conv,
    descending_chain,
    infer_type,
    min_subtype_level,
    normalize,
    parse_context,
    parse_term,
    principal_of,
    self_application,
    strict_subtype,
    subtype,
    to_full,
    trace_to_derivation,
    verify,
)
from ecckernel import cli
from ecckernel.reduction import DEFAULT_FUEL

import inputs
from inputs import alpha_key

BUILD, ACCEPT, REJECT = "build", "accept", "reject"
KINDS = (BUILD, ACCEPT, REJECT)


@dataclass(frozen=True)
class Op:
    """One operation: `run` returns (seconds, verdict correct)."""

    kind: str
    name: str
    run: Callable[[], tuple[float, bool]]
    traced: Callable[["Tracer"], bool]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    op_id: int
    parent: int | None  # index of the enclosing span in the same pass
    contractions: int | None  # budget - remaining of the call's fresh Fuel
    error: str | None


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    A tracer without detail records only the operation spans, so that a
    pass through it times the same public calls with no tracing cost.
    """

    def __init__(self, detail: bool = True) -> None:
        self.detail = detail
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._op: int | None = None

    @contextlib.contextmanager
    def op(self, name: str):
        index = len(self.spans)
        self.spans.append(None)  # reserved for the op span itself
        self._op = index
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = Span(name, start, time.perf_counter(), index, None, None, None)
            self._op = None

    def call(self, name: str, fn, *args, fuel: bool = False):
        """Run one public call inside a span; a fuelled call gets a fresh Fuel."""
        f = Fuel(DEFAULT_FUEL) if fuel else None
        if not self.detail:
            return fn(*args, f) if fuel else fn(*args)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, f) if fuel else fn(*args)
        except Exception as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            used = DEFAULT_FUEL - f.remaining if fuel else None
            self.spans.append(Span(name, start, end, self._op, self._op, used, error))

    def count(self, name: str, value: int) -> None:
        if self.detail:
            self.counts[name] += value


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _cli(argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        elapsed, code = _timed(cli.run_command, argv)
    return elapsed, code, out.getvalue(), err.getvalue()


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _ctx_key(ctx) -> tuple:
    return tuple((name, alpha_key(ty)) for name, ty in ctx)


def trace_size(tr) -> int:
    return 1 + sum(trace_size(p) for p in tr.premises)


def node_stats(d: Derivation) -> dict[str, int]:
    """Tree nodes, nodes distinct by value, node objects, and Cum nodes."""
    memo: dict[int, tuple[int, int, int]] = {}  # id -> (tree nodes, Cum nodes, value id)
    values: dict[tuple, int] = {}

    def visit(n: Derivation) -> tuple[int, int, int]:
        got = memo.get(id(n))
        if got is None:
            kids = [visit(p) for p in n.premises]
            key = (n.rule, n.conclusion, n.level, n.sub, n.sup, tuple(k[2] for k in kids))
            got = (
                1 + sum(k[0] for k in kids),
                (n.rule == "Cum") + sum(k[1] for k in kids),
                values.setdefault(key, len(values)),
            )
            memo[id(n)] = got
        return got

    nodes, cum, _ = visit(d)
    return {
        "kernel.nodes": nodes,
        "kernel.distinct_nodes": len(values),
        "kernel.node_objects": len(memo),
        "kernel.cum_nodes": cum,
    }


# --- corpus and chains: the `ecc elab` -> `ecc verify` round trip -----------


@dataclass
class _Files:
    ctx: str
    term: str
    out: str
    mutant: str
    expected: tuple  # alpha keys of the expected root judgment
    digest: str | None = None  # of the first elab output, checked by content


class RoundTrip:
    """Per item and pass: elab (build), verify its output (accept), and
    verify its mutant (reject). Set-up calls `tick` after each item."""

    def __init__(self, items: list[inputs.Item], workdir: str, rng: random.Random, tick=lambda: None):
        self.files = []
        for i, item in enumerate(items):
            stem = os.path.join(workdir, f"{i:03d}-{item.name}")
            f = _Files(
                stem + ".ctx",
                stem + ".term",
                stem + ".json",
                stem + ".mutant.json",
                self._judgment_key(item),
            )
            with open(f.ctx, "w", encoding="utf-8") as handle:
                handle.write(item.ctx)
            with open(f.term, "w", encoding="utf-8") as handle:
                handle.write(item.subject)
            # reject inputs are Derivation values, so they follow the file format
            _, d = principal_of(parse_context(item.ctx), parse_term(item.subject))
            cli.save_derivation(inputs.mutate(rng, d), f.mutant)
            self.files.append(f)
            tick()
        self.item_ops = [
            (
                Op(BUILD, "elab", lambda f=f: self._elab(f), lambda tr, f=f: self._elab_traced(f, tr)),
                Op(ACCEPT, "check", lambda f=f: self._check(f), lambda tr, f=f: self._check_traced(f, tr)),
                Op(REJECT, "reject", lambda f=f: self._reject(f), lambda tr, f=f: self._reject_traced(f, tr)),
            )
            for f in self.files
        ]

    @staticmethod
    def _judgment_key(item: inputs.Item) -> tuple:
        return (
            _ctx_key(parse_context(item.ctx)),
            alpha_key(parse_term(item.subject)),
            alpha_key(parse_term(item.expected)),
        )

    def _concludes(self, f: _Files, d: Derivation) -> bool:
        c = d.conclusion
        return (_ctx_key(c.ctx), alpha_key(c.subject), alpha_key(c.type)) == f.expected

    def _written(self, f: _Files) -> bool:
        # the first output is checked by content, later ones by digest
        if f.digest is None:
            if not self._concludes(f, cli.load_derivation(f.out)):
                return False
            f.digest = _digest(f.out)
        return _digest(f.out) == f.digest

    def output_bytes(self) -> int:
        return sum(os.path.getsize(f.out) for f in self.files)

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """The same operations every pass, items in a seeded order."""
        order = list(self.item_ops)
        rng.shuffle(order)
        return [op for ops in order for op in ops]

    def _elab(self, f: _Files) -> tuple[float, bool]:
        elapsed, code, out, _ = _cli(["elab", "--ctx", f.ctx, f.term, "--out", f.out])
        return elapsed, code == cli.EXIT_OK and out == f"wrote {f.out}\n" and self._written(f)

    def _check(self, f: _Files) -> tuple[float, bool]:
        elapsed, code, out, _ = _cli(["verify", f.out])
        return elapsed, code == cli.EXIT_OK and out == "accepted\n"

    def _reject(self, f: _Files) -> tuple[float, bool]:
        elapsed, code, out, err = _cli(["verify", f.mutant])
        return elapsed, code == cli.EXIT_REJECTED and out == "" and err.startswith("rejected:")

    def _elab_traced(self, f: _Files, tr: Tracer) -> bool:
        with tr.op("elab"):
            ctx = tr.call("surface.parse", parse_context, _read(f.ctx))
            tr.call("inference.check_context", check_context, ctx, fuel=True)
            term = tr.call("surface.parse", parse_term, _read(f.term))
            outcome = tr.call("inference.infer_type", infer_type, ctx, term, fuel=True)
            alg = tr.call("kernel.trace_to_derivation", trace_to_derivation, outcome, fuel=True)
            d = tr.call("kernel.to_full", to_full, alg, fuel=True)
            tr.call("kernel.verify", verify, d, fuel=True)
            tr.call("cli.save_derivation", cli.save_derivation, d, f.out)
        if tr.detail:
            tr.count("inference.trace_nodes", trace_size(outcome.trace))
            for name, value in node_stats(d).items():
                tr.count(name, value)
            tr.count("cli.json_bytes", os.path.getsize(f.out))
        return self._concludes(f, d) and self._written(f)

    def _check_traced(self, f: _Files, tr: Tracer) -> bool:
        with tr.op("check"):
            d = tr.call("cli.load_derivation", cli.load_derivation, f.out)
            return tr.call("kernel.verify_check", verify, d, fuel=True) is True

    def _reject_traced(self, f: _Files, tr: Tracer) -> bool:
        with tr.op("reject"):
            d = tr.call("cli.load_derivation", cli.load_derivation, f.mutant)
            try:
                tr.call("kernel.verify_reject", verify, d, fuel=True)
            except DerivationError:
                return True
        return False


# --- decide: decision procedures called through the library ---------------


def _decision(kind: str, span: str, fn, args: tuple, answer: Callable[[object], bool]) -> Op:
    def run() -> tuple[float, bool]:
        elapsed, result = _timed(fn, *args)
        return elapsed, answer(result)

    def traced(tr: Tracer) -> bool:
        with tr.op(span):
            result = tr.call(span, fn, *args, fuel=True)
        return answer(result)

    return Op(kind, span, run, traced)


def _chain_descends(chain) -> bool:
    return all(strict_subtype(chain[i + 1], chain[i]) for i in range(len(chain) - 1))


def _diverges(loop) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        normalize(loop)
    except FuelExhausted:
        return time.perf_counter() - start, True
    return time.perf_counter() - start, False


class Decide:
    """Per pair: subtype both ways, strict, least level both ways, conv,
    normalize and classify; per pass: the descending chain and one
    divergent normalization."""

    PAIRS_PER_DEPTH = 60
    CHAIN = 16

    def __init__(self, rng: random.Random, per_depth: int = PAIRS_PER_DEPTH, tick=lambda: None):
        self.pairs = inputs.decide_pairs(rng, per_depth, tick=tick)
        self.measures = [inputs.reference_measure(p.b) for p in self.pairs]
        self.normal_keys = [alpha_key(p.a) for p in self.pairs]
        self.chain = descending_chain(self.CHAIN)
        self.loop = self_application()
        self.ops = self._ops()

    def output_bytes(self) -> int:
        return 0

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """The same operations every pass, in a seeded order."""
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def _ops(self) -> list[Op]:
        ops = []
        for p, m, key in zip(self.pairs, self.measures, self.normal_keys):
            lo, hi = p.a_exp, p.b_exp
            ops += [
                _decision(ACCEPT, "cumulativity.subtype", subtype, (lo, hi), lambda r: r is True),
                _decision(REJECT, "cumulativity.subtype", subtype, (hi, lo), lambda r: r is False),
                _decision(ACCEPT, "cumulativity.strict_subtype", strict_subtype, (lo, hi), lambda r: r is True),
                _decision(
                    ACCEPT, "cumulativity.min_subtype_level", min_subtype_level, (lo, hi),
                    lambda r: isinstance(r, int),
                ),
                _decision(
                    REJECT, "cumulativity.min_subtype_level", min_subtype_level, (hi, lo),
                    lambda r: r is None,
                ),
                _decision(ACCEPT, "reduction.conv", conv, (lo, p.a), lambda r: r is True),
                _decision(
                    BUILD, "reduction.normalize", normalize, (lo,), lambda r, key=key: alpha_key(r) == key
                ),
                _decision(BUILD, "stratify.classify", classify, (hi,), lambda r, m=m: r.measure == m),
            ]
        ops.append(Op(ACCEPT, "descending_chain", self._chain, self._chain_traced))
        ops.append(Op(REJECT, "divergent", lambda: _diverges(self.loop), self._diverges_traced))
        return ops

    def _chain(self) -> tuple[float, bool]:
        return _timed(_chain_descends, self.chain)

    def _chain_traced(self, tr: Tracer) -> bool:
        chain = self.chain
        with tr.op("descending_chain"):
            return all(
                tr.call("cumulativity.strict_subtype", strict_subtype, chain[i + 1], chain[i], fuel=True)
                for i in range(len(chain) - 1)
            )

    def _diverges_traced(self, tr: Tracer) -> bool:
        with tr.op("divergent"):
            try:
                tr.call("reduction.normalize", normalize, self.loop, fuel=True)
            except FuelExhausted:
                tr.count("reduction.exhausted", 1)
                return True
        return False
