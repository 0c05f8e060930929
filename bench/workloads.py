"""The three workloads, their timed passes and the checks on their outputs.

A workload process drives the library as a closed loop: one caller, the
next op starts when the last returns.

compute-exact   kemeny_triple(g, mode="exact") plus KemenyReport.to_json(),
                what ``kemeny compute`` prints, on small graphs (2m <= 64)
compute-float   the same with mode="float" on graphs with 2m of 130..420
census-n8       census_nb_vs_edge(8) plus census_summary; an op is one of
                the 7441 graphs classified

The corpus comes from the seed (corpus.py) and is built before timing. The
end-to-end run repeats whole rounds of the corpus (whole censuses) until the
given seconds have passed. The traced run does a fixed amount of work once
untraced and twice with layer spans (spans.py), and checks that the work
counts of the two traced passes match exactly. Every output is checked
against a reference after timing (reference.py); a value that differs
while the report says ``failed: false`` is a silent wrong answer.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import nbkemeny

import machine
import reference
import spans
from corpus import Entry, build_rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MODES = {"compute-exact": "exact", "compute-float": "float"}

# corpus rounds built up front; a timed run cycles through them
POOL_ROUNDS = 12
# fixed work of one traced pass: compute rounds, or censuses
TRACE_WORK = {"compute-exact": 1, "compute-float": 3, "census-n8": 1}

# set-up: a fresh interpreter imports the package and the CLI and prints one
# small exact report; the median of SETUP_RUNS is reported
SETUP_RUNS = 11
SETUP_CODE = (
    "import nbkemeny, nbkemeny.cli\n"
    "print(nbkemeny.kemeny_triple(nbkemeny.gen_cycle_barbell(3, 4, 6), mode='exact').to_json())\n"
)
SETUP_TIMEOUT_S = 60


@dataclass
class Pass:
    """Outcome of one pass over the workload."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)  # ops per second of each round
    wrong: list = field(default_factory=list)  # silent wrong answers
    errors: list = field(default_factory=list)  # ops that raised or failed

    def add(self, other: "Pass") -> None:
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.round_rates += other.round_rates
        self.wrong += other.wrong
        self.errors += other.errors


# ---------------------------------------------------------------------------
# compute workloads


def compute_pass(rounds, mode: str, *, seconds: Optional[float] = None,
                 n_rounds: Optional[int] = None, tracer=None) -> tuple[Pass, list]:
    """Whole rounds until ``seconds`` have passed, or exactly ``n_rounds``.
    Returns the pass and the (entry, printed report, report.failed) of every
    op that returned, for the reference check."""
    out = Pass()
    outputs = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for entry in rounds[len(out.round_rates) % len(rounds)]:
            if tracer is not None:
                tracer.op = out.attempted
            t0 = time.perf_counter()
            try:
                report = nbkemeny.kemeny_triple(entry.graph, mode=mode)
                text = report.to_json()
            except Exception as exc:  # an op that raises is a failed op
                report, text = None, repr(exc)
            out.latencies.append(time.perf_counter() - t0)
            out.attempted += 1
            if report is None:
                out.failed += 1
                out.errors.append(f"{entry.label}: raised {text}")
                continue
            if report.failed or report.nb_omitted is not None:
                out.failed += 1
                out.errors.append(f"{entry.label}: report failed (residuals {report.residuals}, "
                                  f"nb_omitted {report.nb_omitted})")
            outputs.append((entry, text, report.failed))
        end = time.perf_counter()
        out.round_rates.append(len(rounds[0]) / (end - round_start))
        if (n_rounds is not None and len(out.round_rates) >= n_rounds) or \
                (seconds is not None and end - start >= seconds):
            out.seconds = end - start
            return out, outputs


def check_compute(out: Pass, outputs: list) -> None:
    """Compare every printed report with its reference, outside timing."""
    refs = {}
    for entry, text, reported_failed in outputs:
        if id(entry) not in refs:
            refs[id(entry)] = reference.expected(entry)
        bad = reference.mismatches(text, refs[id(entry)])
        if not bad:
            continue
        if reported_failed:
            out.errors.append(f"{entry.label}: value differs from reference: {bad}")
        else:
            out.wrong.append(f"{entry.label}: silent wrong answer: {bad}")


# ---------------------------------------------------------------------------
# census workload


def census_pass(*, seconds: Optional[float] = None, n_runs: Optional[int] = None,
                stamp: bool = False) -> tuple[Pass, list]:
    """Whole n = 8 censuses until ``seconds`` have passed, or exactly
    ``n_runs``. With ``stamp``, each graph's latency is the time since the
    previous graph was classified (its canonical name computed)."""
    out = Pass()
    summaries = []
    stamps: list = []
    undo = []
    if stamp:
        original = nbkemeny.census.canonical_graph6

        def stamped(g):
            name = original(g)
            stamps.append(time.perf_counter())
            return name

        undo = spans.rebind(original, stamped)
    try:
        start = time.perf_counter()
        while True:
            stamps.clear()
            stamps.append(time.perf_counter())
            round_start = stamps[0]
            try:
                result = nbkemeny.census_nb_vs_edge(8)
                summary = nbkemeny.census_summary(result, 8)
            except Exception as exc:  # a census that raises fails all its graphs
                out.attempted += reference.CENSUS_N8["total"]
                out.failed += reference.CENSUS_N8["total"]
                out.errors.append(f"census raised {exc!r}")
            else:
                out.attempted += len(result.records)
                summaries.append(summary)
                out.latencies += [b - a for a, b in zip(stamps, stamps[1:])]
            end = time.perf_counter()
            out.round_rates.append(reference.CENSUS_N8["total"] / (end - round_start))
            if (n_runs is not None and len(out.round_rates) >= n_runs) or \
                    (seconds is not None and end - start >= seconds):
                out.seconds = end - start
                return out, summaries
    finally:
        for step in reversed(undo):
            step()


def check_census(out: Pass, summaries: list) -> None:
    for summary in summaries:
        if summary != reference.CENSUS_N8:
            out.wrong.append(f"census summary {summary} != {reference.CENSUS_N8}")


# ---------------------------------------------------------------------------
# set-up time


def measure_setup() -> tuple[float, list]:
    """Median wall time of SETUP_RUNS fresh interpreters, each checked."""
    want = reference.expected(Entry("barbell", (3, 4, 6), nbkemeny.gen_cycle_barbell(3, 4, 6)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, wrong = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()}")
        bad = reference.mismatches(proc.stdout, want)
        if bad:
            wrong.append(f"set-up report differs from the closed form: {bad}")
    return statistics.median(times), wrong


# ---------------------------------------------------------------------------
# runs


def warm_up(workload: str, rounds) -> None:
    """One untimed op, on the round's largest graph, so that lazy set-up is
    done and memory has reached the size the timed ops need."""
    if workload == "census-n8":
        nbkemeny.census_nb_vs_edge(6)
    else:
        largest = max(rounds[0], key=lambda e: e.graph.m)
        nbkemeny.kemeny_triple(largest.graph, mode=MODES[workload]).to_json()


def run_pass(workload: str, rounds, *, seconds=None, count=None,
             tracer=None, stamp=False) -> tuple[Pass, list]:
    """Whole rounds (censuses) until ``seconds`` have passed, or ``count``."""
    if workload == "census-n8":
        return census_pass(seconds=seconds, n_runs=count, stamp=stamp)
    return compute_pass(rounds, MODES[workload], seconds=seconds,
                        n_rounds=count, tracer=tracer)


def check(workload: str, out: Pass, outputs: list) -> None:
    if workload == "census-n8":
        check_census(out, outputs)
    else:
        check_compute(out, outputs)


def end_to_end(workload: str, rounds, seconds: float) -> tuple[Pass, dict, dict]:
    setup_s, setup_wrong = measure_setup()
    warm_up(workload, rounds)
    out, outputs = run_pass(workload, rounds, seconds=seconds, stamp=True)
    # before the reference check, which imports networkx
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check(workload, out, outputs)
    out.wrong += setup_wrong
    deciles = statistics.quantiles(out.latencies, n=10, method="inclusive")
    metrics = {
        "throughput_ops_per_s": (statistics.median(out.round_rates), "1/s"),
        "latency_p50_s": (deciles[4], "s"),
        "latency_p90_s": (deciles[8], "s"),
        "success_share": ((out.attempted - out.failed) / out.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"timed_seconds": out.seconds, "round_rates": out.round_rates,
             "latency_samples": len(out.latencies)}
    return out, metrics, extra


def traced(workload: str, rounds, per_layer: list, spans_path: Path) -> tuple[Pass, dict, dict]:
    """One untraced and two traced passes over the same fixed work."""
    work = TRACE_WORK[workload]
    warm_up(workload, rounds)
    total = Pass()
    plain, outputs = run_pass(workload, rounds, count=work)
    check(workload, plain, outputs)
    total.add(plain)
    self_s, counts, seconds = [], [], []
    for i in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            out, outputs = run_pass(workload, rounds, count=work, tracer=tracer)
        finally:
            tracer.remove()
        check(workload, out, outputs)
        total.add(out)
        seconds.append(out.seconds)
        self_s.append(dict(tracer.self_s))
        counts.append(tracer.deterministic_counts())
        if i == 0:
            tracer.write(spans_path)
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        total.wrong.append(f"work counts differ between two traced passes: {diff}")
    mean_self = {k: statistics.mean(s.get(k, 0.0) for s in self_s)
                 for k in sorted(self_s[0].keys() | self_s[1].keys())}
    traced_s = statistics.mean(seconds)
    measured = {
        "trace.untraced_ops_per_s": plain.attempted / plain.seconds,
        "trace.traced_ops_per_s": plain.attempted / traced_s,
        "trace.overhead_share": traced_s / plain.seconds - 1.0,
    }
    metrics = {}
    for name, unit in per_layer:
        if name in measured:
            value = measured[name]
        elif name.endswith(".self_s"):
            value = mean_self.get(name[: -len(".self_s")], 0.0)
        else:
            value = counts[0].get(name, 0)
        metrics[name] = (value, unit)
    extra = {"work": work, "ops_per_pass": plain.attempted, "untraced_seconds": plain.seconds,
             "traced_seconds": seconds, "counts": counts[0], "self_s": mean_self}
    return total, metrics, extra


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its result and return the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    rounds = [] if workload == "census-n8" else build_rounds(workload, seed, POOL_ROUNDS)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    if trace:
        out, metrics, extra = traced(workload, rounds, per_layer, OUT / f"spans-{tag}.jsonl")
    else:
        out, metrics, extra = end_to_end(workload, rounds, seconds)

    meta = machine.metadata()
    correct = not out.wrong
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
         "meta": meta, **extra, "wrong": out.wrong, "errors": out.errors, "result": result},
        indent=2))
    for line in out.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1
