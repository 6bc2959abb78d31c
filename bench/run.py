"""Benchmark of the ecckernel `ecc elab` -> `ecc verify` round trip and
of its decision procedures.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the program is imported from `src`.
Each workload runs in a fresh interpreter whose hash seed is derived from
the workload seed and whose environment has no `ECC_FUEL`. A run sets the
workload up, makes one untimed warm-up pass, and then makes whole passes,
one operation at a time from a single client (a closed loop), until
`--seconds` would be exceeded. `--trace 0` prints the end-to-end metrics,
with times scaled to a reference host; `--trace 1` runs each operation
with and without spans and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170  # a run must exit within 180 s

# End-to-end times are scaled to a reference host: one on which
# `reference_work` takes REFERENCE_S. Shared hosts change speed by up to
# 1.7x within minutes (on a 2-vCPU Xeon VM a fixed integer loop read 2.4 or
# 3.6 ms, switching every few seconds), and that moves a fixed workload and
# the program together.
REFERENCE_S = 0.0025
PROBE_EVERY_S = 0.1

# workload and metric names and units are those BENCHMARK.json declares
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


# --- the workload process ----------------------------------------------------


def build_workload(name: str, rng: random.Random, workdir: str, tick):
    # the program is importable only in the workload process, whose path
    # the launcher sets, so modules that import it are imported late
    from inputs import chain_items, corpus_items
    from workloads import Decide, RoundTrip

    if name == "corpus":
        return RoundTrip(corpus_items(), workdir, rng, tick)
    if name == "chains":
        return RoundTrip(chain_items(rng), workdir, rng, tick)
    return Decide(rng, tick=tick)


class Tally:
    """Verdicts of every operation run, and the first unexpected error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> float | None:
        """Seconds the operation took, or None when its verdict was wrong."""
        self.attempted += 1
        try:
            elapsed, ok = op.run()
        except Exception:
            ok = False
            elapsed = None
            self._report(op)
        if not ok:
            self.failed += 1
            return None
        return elapsed

    def traced(self, op, tracer) -> None:
        self.attempted += 1
        try:
            ok = op.traced(tracer)
        except Exception:
            ok = False
            self._report(op)
        self.failed += not ok

    def _report(self, op) -> None:
        if self.failed == 0:
            print(f"unexpected error in {op.kind} op {op.name}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def percentile(samples: list[float], q: int) -> float:
    """Nearest rank: the least sample with at least q% of samples at or below it.

    Workloads hold a few inputs of each size, so interpolating between two
    neighbours would mix inputs of very different cost.
    """
    return sorted(samples)[max(0, math.ceil(q * len(samples) / 100) - 1)]


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _tree(depth: int) -> _Node:
    return _Node(f"n{depth}", tuple(_tree(depth - 1) for _ in range(2 if depth else 0)))


def _size(node: _Node) -> int:
    return 1 + sum(_size(k) for k in node.kids)


def reference_work() -> float:
    """Seconds a fixed pure-Python workload takes: the host's current speed.

    Like the program it allocates small frozen objects, recurses over them
    and round-trips JSON, so memory contention slows both alike. It uses
    none of the program's code, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    _size(_tree(8))
    json.loads(json.dumps([[i, str(i), {"k": i}] for i in range(200)]))
    total = 0
    for i in range(10000):
        total += i * i % 7
    return time.perf_counter() - start


def host_speed() -> float:
    """The reference work's fastest of three runs; one run can be hit by a
    pause that has nothing to do with the host's speed."""
    return min(reference_work() for _ in range(3))


class SetupClock:
    """Set-up time from process start, in reference-host seconds.

    Set-up calls `tick` after each input or group of inputs. A tick takes
    the host's speed; the time since the last tick is scaled by the mean
    of the speeds at its two ends, as an operation is, and the probe's own
    time is left out. A set-up takes seconds on `chains`, long enough for
    the host to change speed within it.
    """

    def __init__(self, t0: float) -> None:
        self.scaled_s = self.raw_s = 0.0
        self.last = t0
        self.speed = None  # the start-up before the first probe is scaled by it alone

    def tick(self) -> None:
        now = time.monotonic()
        after = host_speed()
        before = self.speed or after
        self.raw_s += now - self.last
        self.scaled_s += (now - self.last) * REFERENCE_S / ((before + after) / 2)
        self.speed, self.last = after, time.monotonic()


def untraced_pass(wl, rng, tally: Tally, samples: dict) -> None:
    """Run one pass, adding each correct operation's (scaled, raw) seconds
    to its samples. The host's speed is taken at the start, after every
    PROBE_EVERY_S of operations and at the end; an operation is scaled by
    the mean of the speeds just before and just after it."""
    pending: list = []
    before = host_speed()
    last = time.perf_counter()

    def scale() -> None:
        nonlocal before, last
        after = host_speed()
        factor = REFERENCE_S / ((before + after) / 2)
        for op, elapsed in pending:
            samples.setdefault(op, []).append((elapsed * factor, elapsed))
        pending.clear()
        before, last = after, time.perf_counter()

    for op in wl.pass_ops(rng):
        elapsed = tally.run(op)
        if elapsed is not None:
            pending.append((op, elapsed))
        if time.perf_counter() - last > PROBE_EVERY_S:
            scale()
    scale()


def traced_pass(wl, rng, tally: Tally):
    """Run each operation three ways back to back: through the CLI path,
    through the public calls without spans, and with a span per call.
    Adjacent runs see the same host speed, so their differences hold; the
    order of the three turns from one operation to the next, so that none
    always runs first. Returns the CLI milliseconds and the tracers
    without and with detail."""
    from workloads import Tracer

    cli_s = 0.0
    bare, detail = Tracer(detail=False), Tracer(detail=True)
    for i, op in enumerate(wl.pass_ops(rng)):
        for way in range(3):
            match (i + way) % 3:
                case 0:
                    cli_s += tally.run(op) or 0.0
                case 1:
                    tally.traced(op, bare)
                case 2:
                    tally.traced(op, detail)
    return cli_s * 1000, bare, detail


def layer_metrics(tracer) -> dict[str, float]:
    ms: dict[str, float] = {}
    contractions: dict[str, int] = {}
    for s in tracer.spans:
        if s.parent is None:
            continue
        ms[s.name] = ms.get(s.name, 0.0) + (s.end - s.start) * 1000
        if s.contractions is not None:
            contractions[s.name] = contractions.get(s.name, 0) + s.contractions
    values = {f"{name}.ms": v for name, v in ms.items()}
    values.update({f"{name}.contractions": v for name, v in contractions.items()})
    values.update(tracer.counts)
    nodes = values.get("kernel.nodes", 0)
    values["kernel.distinct_share"] = values.get("kernel.distinct_nodes", 0) / nodes if nodes else 0.0
    sub = values.get("cumulativity.subtype.contractions", 0)
    level = values.get("cumulativity.min_subtype_level.contractions", 0)
    values["cumulativity.level_search_ratio"] = level / sub if sub else 0.0
    return values


def busy_ms(tracer) -> float:
    return sum(s.end - s.start for s in tracer.spans if s.parent is None) * 1000


def workload_process(args) -> dict:
    root_work = os.path.join(ROOT, ".bench_work")
    os.makedirs(root_work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root_work)
    try:
        clock = SetupClock(args.t0)
        clock.tick()
        rng = random.Random(args.seed)
        wl = build_workload(args.workload, rng, workdir, clock.tick)
        clock.tick()
        setup = {"setup_s": clock.scaled_s, "raw_setup_s": clock.raw_s}
        if args.child == "setup":
            return setup
        result = measure(wl, rng, args) if not args.trace else trace(wl, rng, args)
        result.update(setup)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _passes(seconds: float, run_pass) -> float:
    """Run whole passes until the next would overrun; returns loop seconds."""
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass()
        now = time.perf_counter()
        estimate = now - pass_start
        if now - start + estimate > seconds:
            return now - start


def measure(wl, rng, args) -> dict:
    """End-to-end metrics, in reference-host time.

    Each input is taken at its median over the timed passes, and latency
    percentiles and throughput are computed over inputs: counting every
    input once keeps a percentile from landing between the samples of two
    inputs of very different size. Raw times are reported beside them.
    """
    from workloads import KINDS

    tally = Tally()
    untraced_pass(wl, rng, tally, {})  # warm-up
    # peak memory of set-up and one pass: the samples kept from here on
    # grow with the number of passes, which depends on the host's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples: dict = {}
    loop_s = _passes(args.seconds, lambda: untraced_pass(wl, rng, tally, samples))
    passes = min(len(xs) for xs in samples.values())
    typical = {
        op: (statistics.median(x[0] for x in xs), statistics.median(x[1] for x in xs))
        for op, xs in samples.items()
    }  # (scaled, raw) seconds
    count = f"{len(typical)} inputs, median of {passes} passes"

    metrics, report = {}, []
    for kind in KINDS:
        scaled = [b[0] for op, b in typical.items() if op.kind == kind]
        raw = [b[1] for op, b in typical.items() if op.kind == kind]
        for q in (50, 90):
            name = f"{kind}_p{q}_ms"
            metrics[name] = percentile(scaled, q) * 1000
            report.append((name, metrics[name], "ref_ms", f"{len(scaled)} inputs, median of {passes} passes"))
            report.append((f"{name} (raw)", percentile(raw, q) * 1000, "ms", ""))
    metrics["ops_per_s"] = len(typical) / sum(b[0] for b in typical.values())
    report.append(("ops_per_s", metrics["ops_per_s"], "1/ref_s", count))
    done = sum(len(xs) for xs in samples.values())
    report.append(("loop_ops_per_s (raw)", done / loop_s, "1/s", f"{done} ops in {loop_s:.1f} s"))
    report.append(("error_rate", tally.failed / tally.attempted, "ratio", f"{tally.attempted} ops"))
    report.append(("derivation_bytes", wl.output_bytes(), "bytes/pass", "deterministic"))
    metrics["peak_rss_mb"] = peak_rss_mb
    report.append(("peak_rss_mb", peak_rss_mb, "MB", "set-up and warm-up pass"))
    if args.workload == "decide":
        every = [b[0] for b in typical.values()]
        for q in (50, 99):
            report.append((f"decide_p{q}_ms", percentile(every, q) * 1000, "ref_ms", count))
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "report": report}


def trace(wl, rng, args) -> dict:
    """Per-layer metrics from traced passes: times at their fastest pass,
    counts (which repeat exactly) as counted, and the two differences of
    adjacent runs at their median."""
    tally = Tally()
    untraced_pass(wl, rng, tally, {})  # warm-up
    passes = []
    _passes(args.seconds, lambda: passes.append(traced_pass(wl, rng, tally)))
    tracers = [detail for _, _, detail in passes]
    per_pass = [layer_metrics(t) for t in tracers]
    metrics = {name: min(p.get(name, 0) for p in per_pass) for name, _ in PER_LAYER}
    # differences of adjacent runs: the median, as the fastest would pick noise
    metrics["cli.dispatch.ms"] = statistics.median(cli - busy_ms(bare) for cli, bare, _ in passes)
    metrics["trace.overhead_ms"] = statistics.median(busy_ms(d) - busy_ms(bare) for _, bare, d in passes)
    _write_spans(args, tracers)
    differences = ("cli.dispatch.ms", "trace.overhead_ms")
    report = [
        (name, metrics[name], unit, f"{'median' if name in differences else 'best'} of {len(per_pass)} passes")
        for name, unit in PER_LAYER
    ]
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "report": report}


def _write_spans(args, tracers) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for number, tracer in enumerate(tracers):
            for s in tracer.spans:
                record = {"pass": number, **s.__dict__}
                handle.write(json.dumps(record) + "\n")


# --- the launcher ------------------------------------------------------------


def _child(args, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ECC_FUEL"}
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    env["PYTHONPATH"] = SRC
    argv = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(args, deadline: float) -> dict:
    if args.trace:
        result = _child(args, "run", deadline)
        names = PER_LAYER
    else:
        setups = [_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = _child(args, "run", deadline)
        setups.append(result)
        setup_s = statistics.median(r["setup_s"] for r in setups)
        names = END_TO_END
        result["metrics"]["setup_s"] = setup_s
        result["report"] += [
            ("setup_s", setup_s, "s", f"median of {len(setups)} set-ups, reference host"),
            ("setup_s (raw)", statistics.median(r["raw_setup_s"] for r in setups), "s", ""),
        ]
    for name, value, unit, n in result["report"]:
        print(f"{args.workload:7s} {name:45s} {value:14.4f} {unit:10s} {n}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in names}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(workload_process(args)))
        return 0

    if not os.path.isfile(os.path.join(SRC, "ecckernel", "__init__.py")):
        print(f"no ecckernel sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), deadline)
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
