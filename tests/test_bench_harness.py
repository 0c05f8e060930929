"""The bench harness's tracer still binds to the package.

``bench/spans.py`` wraps package functions by name.  Without this test a
renamed or re-signed traced function would break only traced bench runs
(``bench/run.py --trace 1``), not the test suite.
"""

from pathlib import Path

import pytest

import nbkemeny
from nbkemeny import census, chains, engine, gen_complete

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


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
