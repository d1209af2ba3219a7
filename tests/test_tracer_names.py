"""The names that the benchmark's tracer rebinds must stay in the library.

``perfbench/tracing.py`` wraps boundary names of the library's modules,
some of them imported only for it (``search._hyper_embedding_search``);
deleting one breaks every traced benchmark run.  A traced run must also
pass the tracer's own consistency check, one certify call per certified
row.  The tracer imports only the standard library, so it is loaded here
by its file path.
"""

import importlib.util
from pathlib import Path

import patternex
import patternex.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_tracer_rebinds_exists_and_is_restored():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(patternex)  # a missing name raises AttributeError here
        installed = list(tracer._installed)
        rebound = {(module.__name__, attr) for module, attr, _ in installed}
        assert ("patternex.search", "_hyper_embedding_search") in rebound
        assert ("patternex.search", "_matrix_embedding_search") in rebound
        assert ("patternex.verify", "klazar_marcus_check") in rebound
        for module, attr, original in installed:
            wrapped = getattr(module, attr)
            assert wrapped is not original and callable(wrapped), (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in installed:
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_a_traced_run_certifies_each_row_once_with_or_without_copies():
    # P1342 has no copy at n = 2, 3, {12,23,34} none at n = 1..3 and the
    # matching none at n = 1..5; the later rows search.  Each row, shared
    # certificate or not, makes exactly one certify call.
    p1342 = patternex.permutation_matrix((1, 3, 4, 2))
    path = patternex.make_hypergraph(4, [(1, 2), (2, 3), (3, 4)])
    matching = patternex.make_hypergraph(6, [(1, 2), (3, 5), (4, 6)])
    rows = (
        [("ex_matrix", p1342, n) for n in range(2, 6)]
        + [("exi_hyper", path, n) for n in range(1, 5)]
        + [("gex_graph", matching, n) for n in range(1, 8)]
    )
    tracer = _load_tracing().Tracer()
    tracer.install(patternex)
    try:
        tracer.begin_unit("rows")
        for solver, pattern, n in rows:  # through the rebound names
            assert getattr(patternex.search, solver)(pattern, n).verified
        tracer.end_unit()
    finally:
        tracer.uninstall()
    assert tracer.consistency_problems() == []
    assert tracer._sum("search.certify", "calls") == len(rows) == 15
