"""The bench harness still binds to the package, and its answers are right.

``bench/spans.py`` wraps package functions by name.  Without these tests a
renamed or re-signed traced function would break only traced bench runs
(``bench/run.py --trace 1``), and a wrong value on a bench graph would fail
only the bench's own reference check, not the test suite.
"""

import hashlib
import json
from pathlib import Path

import pytest

import nbkemeny
from nbkemeny import census, chains, engine, gen_complete, kemeny_triple

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import corpus
    import reference
    return corpus, reference


def test_tracer_installs_counts_and_removes(spans):
    targets = [(mod, attr) for mod, attr, *_ in spans.TARGETS + spans.GENERATORS]
    originals = [getattr(mod, attr) for mod, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        nbkemeny.kemeny_triple(gen_complete(4), mode="exact")
        nbkemeny.census_nb_vs_edge(4)
    finally:
        tracer.remove()
    assert tracer.counts["engine.kemeny_triple.calls"] == 1
    assert tracer.counts["census.enumerate_graphs.yielded"] > 0
    for (mod, attr), fn in zip(targets, originals):
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} still wrapped"
    assert nbkemeny.kemeny_triple is engine.kemeny_triple
    assert census.enumerate_graphs is nbkemeny.enumerate_graphs
    assert chains.MATRIX_BUILDERS["non-backtracking"] is chains.nb_transition


# the slots of round 0 small enough for the test suite: compute-exact's 18
# at 2m <= 20 and compute-float's first two (2m = 130 and 150)
SLOTS = {"compute-exact": ("exact", 18), "compute-float": ("float", 2)}


@pytest.mark.parametrize("workload", list(SLOTS))
def test_bench_values_match_reference(bench_modules, workload):
    corpus, reference = bench_modules
    mode, slots = SLOTS[workload]
    for entry in corpus.build_rounds(workload, 7, 1)[0][:slots]:
        report = kemeny_triple(entry.graph, mode=mode)
        assert reference.mismatches(report.to_json(), reference.expected(entry)) == [], entry.label


def test_exact_bytes_pinned(bench_modules):
    # every exact value and its rendering on compute-exact round 0's first
    # 18 slots; the spectrum route and the residuals are floats whose last
    # digits depend on the BLAS build, so they are left out
    corpus, _ = bench_modules
    parts = []
    for entry in corpus.build_rounds("compute-exact", 7, 1)[0][:18]:
        report = kemeny_triple(entry.graph, mode="exact").to_json_dict()
        for routes in report["routes"].values():
            del routes["spectrum"]
        del report["residuals"]
        parts.append(json.dumps(report, sort_keys=True))
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest.startswith("9aae44bf1a761a1b"), digest
